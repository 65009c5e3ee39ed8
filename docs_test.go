package snnmap_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// docFiles are the documents whose backticked names TestDocsNameLiveCode holds
// to the tree, beside every skill file (SKILL.md) the walk finds.
var docFiles = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}

// codeIndex is what the root module's Go files declare, read with go/parser.
type codeIndex struct {
	decls    map[string]bool            // every declared name: top level, field, method, local
	members  map[string]map[string]bool // type name → its fields and methods
	isMember map[string]bool            // names declared as some type's field or method
	pkgTop   map[string]map[string]bool // package name → its top-level names
	stdPkgs  map[string]bool            // stdlib import paths and their package names
	strs     map[string]bool            // string literals, benchmark/*.go included
	base     map[string]bool            // base names of every file in the tree
	sources  []string                   // every .go file and ci.yml, benchmark/ included
	skills   []string                   // every SKILL.md
}

func newCodeIndex(t *testing.T) *codeIndex {
	t.Helper()
	ix := &codeIndex{
		decls: map[string]bool{}, members: map[string]map[string]bool{}, isMember: map[string]bool{},
		pkgTop: map[string]map[string]bool{}, stdPkgs: map[string]bool{}, strs: map[string]bool{}, base: map[string]bool{},
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// Hidden directories below the top level are build and run output.
			if d.Name() == ".git" || strings.HasPrefix(d.Name(), ".") && strings.ContainsRune(filepath.ToSlash(p), '/') {
				return filepath.SkipDir
			}
			return nil
		}
		ix.base[d.Name()] = true
		switch d.Name() {
		case "ci.yml":
			ix.sources = append(ix.sources, p)
		case "SKILL.md":
			ix.skills = append(ix.skills, p)
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		ix.sources = append(ix.sources, p)
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if strings.HasPrefix(filepath.ToSlash(p), "benchmark/") {
			ix.addStrings(f) // a separate module: its metric names only
		} else {
			ix.add(f)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func (ix *codeIndex) addStrings(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if s, err := strconv.Unquote(lit.Value); err == nil {
				ix.strs[s] = true
			}
		}
		return true
	})
}

func (ix *codeIndex) member(typ, name string) {
	if ix.members[typ] == nil {
		ix.members[typ] = map[string]bool{}
	}
	ix.members[typ][name] = true
	ix.isMember[name] = true
	ix.decls[name] = true
}

func (ix *codeIndex) add(f *ast.File) {
	ix.addStrings(f)
	pkg := f.Name.Name
	if ix.pkgTop[pkg] == nil {
		ix.pkgTop[pkg] = map[string]bool{}
	}
	top := ix.pkgTop[pkg]
	for _, imp := range f.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		if !strings.Contains(strings.SplitN(p, "/", 2)[0], ".") && !strings.HasPrefix(p, "snnmap") {
			ix.stdPkgs[p] = true
			ix.stdPkgs[path.Base(p)] = true
		}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				top[d.Name.Name] = true
			} else if len(d.Recv.List) > 0 {
				ix.member(recvType(d.Recv.List[0].Type), d.Name.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					top[s.Name.Name] = true
				case *ast.ValueSpec:
					for _, n := range s.Names {
						top[n.Name] = true
					}
				}
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.TypeSpec:
			ix.decls[n.Name.Name] = true
			ix.typeMembers(n.Name.Name, n.Type)
		case *ast.FuncDecl:
			ix.decls[n.Name.Name] = true
		case *ast.ValueSpec:
			for _, id := range n.Names {
				ix.decls[id.Name] = true
			}
		case *ast.Field:
			for _, id := range n.Names {
				ix.decls[id.Name] = true
			}
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				for _, e := range n.Lhs {
					if id, ok := e.(*ast.Ident); ok {
						ix.decls[id.Name] = true
					}
				}
			}
		case *ast.RangeStmt:
			for _, e := range []ast.Expr{n.Key, n.Value} {
				if id, ok := e.(*ast.Ident); ok && n.Tok == token.DEFINE {
					ix.decls[id.Name] = true
				}
			}
		}
		return true
	})
}

// typeMembers records the fields of a struct and the methods of an
// interface; an embedded field counts under its type's name.
func (ix *codeIndex) typeMembers(typ string, e ast.Expr) {
	var fields *ast.FieldList
	switch e := e.(type) {
	case *ast.StructType:
		fields = e.Fields
	case *ast.InterfaceType:
		fields = e.Methods
	default:
		return
	}
	for _, fl := range fields.List {
		for _, id := range fl.Names {
			ix.member(typ, id.Name)
		}
		if len(fl.Names) == 0 {
			ix.member(typ, recvType(fl.Type))
		}
	}
}

// recvType is the bare type name of a receiver or embedded field.
func recvType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.SelectorExpr:
			return x.Sel.Name
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

var (
	fenceRE    = regexp.MustCompile("(?ms)^\\s*```.*?^\\s*```[^\\n]*$")
	spanRE     = regexp.MustCompile("`([^`]+)`")
	identRE    = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*(\(\))?$`)
	docFileRE  = regexp.MustCompile(`^[\w.-]+\.(go|md|txt|json|yml|mod)$`)
	designRefR = regexp.MustCompile(`DESIGN\.md[\s/#*]*(§\s*\d+|"[A-Z][^"\n]*")`)
	ownRefRE   = regexp.MustCompile(`§(\d+)(\.\d)?`)
	headingRE  = regexp.MustCompile(`(?m)^#{2,3} (?:(\d+)\. )?(.+)$`)
)

// checkSpan returns why a backticked span names nothing in the tree, or "".
func (ix *codeIndex) checkSpan(s string) string {
	switch {
	case strings.ContainsAny(s, " \t\n") || strings.HasPrefix(s, "-") || strings.Contains(s, "://"):
		return "" // a command, a flag or a URL
	case strings.Contains(s, "/"):
		if ix.stdPkgs[s] || ix.strs[s] {
			return "" // an import path, or a name such as a cache tag
		}
		if m, _ := filepath.Glob(strings.TrimSuffix(s, "/")); len(m) > 0 {
			return ""
		}
		return "no such file or directory"
	case docFileRE.MatchString(s):
		if ix.base[s] {
			return ""
		}
		return "no such file in the tree"
	case !identRE.MatchString(s):
		return "" // an expression, a formula or a value
	}
	if ix.strs[s] {
		return "" // a span, counter, metric or workload name
	}
	parts := strings.Split(strings.TrimSuffix(s, "()"), ".")
	if ix.stdPkgs[parts[0]] || len(parts) == 1 && ix.pkgTop[parts[0]] != nil {
		return "" // a stdlib name or a package
	}
	if top, ok := ix.pkgTop[parts[0]]; ok && len(parts) > 1 {
		if !top[parts[1]] {
			return "package " + parts[0] + " declares no " + parts[1]
		}
		parts = parts[1:]
	} else if !ix.decls[parts[0]] {
		return parts[0] + " is declared nowhere"
	}
	for i := 1; i < len(parts); i++ {
		if ms, ok := ix.members[parts[i-1]]; ok {
			if !ms[parts[i]] {
				return parts[i-1] + " has no field or method " + parts[i]
			}
		} else if !ix.isMember[parts[i]] {
			return parts[i] + " is no type's field or method"
		}
	}
	return ""
}

// designHeadings returns DESIGN.md's section numbers and titles.
func designHeadings(t *testing.T) (nums map[string]bool, titles []string) {
	t.Helper()
	b, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	nums = map[string]bool{}
	for _, m := range headingRE.FindAllStringSubmatch(string(b), -1) {
		if m[1] != "" {
			nums[m[1]] = true
		}
		titles = append(titles, m[2])
	}
	return nums, titles
}

// checkDesignRefs reports each reference to a DESIGN.md section, by number or
// by quoted title, that names no heading. In DESIGN.md itself a bare §N (not
// a paper's §N.M) refers to its own section too.
func checkDesignRefs(text string, own bool, nums map[string]bool, titles []string) []string {
	var bad []string
	for _, m := range designRefR.FindAllStringSubmatch(text, -1) {
		ref := m[1]
		if strings.HasPrefix(ref, `"`) {
			title := strings.Trim(ref, `"`)
			found := false
			for _, h := range titles {
				found = found || strings.HasPrefix(h, title)
			}
			if !found {
				bad = append(bad, "DESIGN.md "+ref)
			}
		} else if n := strings.TrimSpace(strings.TrimPrefix(ref, "§")); !nums[n] {
			bad = append(bad, "DESIGN.md §"+n)
		}
	}
	if own {
		for _, m := range ownRefRE.FindAllStringSubmatch(text, -1) {
			if m[2] == "" && !nums[m[1]] {
				bad = append(bad, "§"+m[1])
			}
		}
	}
	return bad
}

// TestDocsNameLiveCode holds the documents to the code they describe: every
// backticked Go name is declared in the root module, every span or metric
// name is a string literal of the module or of benchmark/, every path exists,
// and every DESIGN.md section reference names a heading.
func TestDocsNameLiveCode(t *testing.T) {
	ix := newCodeIndex(t)
	nums, titles := designHeadings(t)
	if len(ix.skills) == 0 {
		t.Error("found no SKILL.md")
	}
	for _, doc := range append(docFiles, ix.skills...) {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := fenceRE.ReplaceAllString(string(b), "")
		for _, m := range spanRE.FindAllStringSubmatch(text, -1) {
			if why := ix.checkSpan(m[1]); why != "" {
				t.Errorf("%s: `%s`: %s", doc, m[1], why)
			}
		}
		for _, ref := range checkDesignRefs(string(b), doc == "DESIGN.md", nums, titles) {
			t.Errorf("%s: %s names no DESIGN.md heading", doc, ref)
		}
	}
	for _, p := range ix.sources {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, ref := range checkDesignRefs(string(b), false, nums, titles) {
			t.Errorf("%s: %s names no DESIGN.md heading", p, ref)
		}
	}
}
