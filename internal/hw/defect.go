// Defect maps: the fault model layered over the ideal mesh of §3.1. Real
// neuromorphic chips ship with manufacturing defects — dead cores and failed
// router-to-router links — and the mapper must lay the application over the
// healthy remainder. Per-core capacity is not part of the model: the
// partitioner sizes every cluster for a full core. A DefectMap records
// those defects; deterministic seeded injectors produce the chip-realistic
// fault patterns (uniform, clustered/radial, whole rows/columns) used by the
// fault-sweep experiments, and JSON serialization lets a measured defect map
// travel with a physical chip.
package hw

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"snnmap/internal/geom"
)

// DefectMap records the defects of one physical mesh instance. The zero
// value is unusable; construct with NewDefectMap or an injector. A nil
// *DefectMap is valid everywhere and means "no defects".
type DefectMap struct {
	mesh Mesh
	dead []bool
	// linkDown is indexed by link id: the link from core idx to its right
	// neighbor has id idx*2, to its bottom neighbor idx*2+1 (the same
	// encoding as the FD pair ids).
	linkDown []bool

	numDead, numLinks int
}

// NewDefectMap returns an empty (fully healthy) defect map for the mesh.
func NewDefectMap(mesh Mesh) *DefectMap {
	return &DefectMap{mesh: mesh, dead: make([]bool, mesh.Cores())}
}

// Mesh returns the mesh the map describes.
func (d *DefectMap) Mesh() Mesh { return d.mesh }

// MarkDead marks core idx as dead (unusable for placement and routing).
func (d *DefectMap) MarkDead(idx int) {
	if !d.dead[idx] {
		d.dead[idx] = true
		d.numDead++
	}
}

// FailLink marks the mesh link between adjacent cores a and b as failed.
func (d *DefectMap) FailLink(a, b int) error {
	if a > b {
		a, b = b, a
	}
	var id int
	switch {
	case b == a+1 && a%d.mesh.Cols != d.mesh.Cols-1:
		id = a * 2
	case b == a+d.mesh.Cols:
		id = a*2 + 1
	default:
		return fmt.Errorf("hw: cores %d and %d are not mesh neighbors", a, b)
	}
	if d.linkDown == nil {
		d.linkDown = make([]bool, 2*d.mesh.Cores())
	}
	if !d.linkDown[id] {
		d.linkDown[id] = true
		d.numLinks++
	}
	return nil
}

// IsDead reports whether core idx is dead. Nil maps report false.
func (d *DefectMap) IsDead(idx int) bool {
	return d != nil && d.dead[idx]
}

// LinkDownDir reports whether the link leaving core idx in direction dir has
// failed. Off-mesh directions report false. Nil maps report false.
func (d *DefectMap) LinkDownDir(idx int, dir geom.Dir) bool {
	if d == nil || d.linkDown == nil {
		return false
	}
	switch dir {
	case geom.Right:
		return idx%d.mesh.Cols != d.mesh.Cols-1 && d.linkDown[idx*2]
	case geom.Down:
		return idx+d.mesh.Cols < d.mesh.Cores() && d.linkDown[idx*2+1]
	case geom.Left:
		return idx%d.mesh.Cols != 0 && d.linkDown[(idx-1)*2]
	case geom.Up:
		return idx >= d.mesh.Cols && d.linkDown[(idx-d.mesh.Cols)*2+1]
	}
	return false
}

// NumDead returns the dead-core count. Nil maps report 0.
func (d *DefectMap) NumDead() int {
	if d == nil {
		return 0
	}
	return d.numDead
}

// NumFailedLinks returns the failed-link count. Nil maps report 0.
func (d *DefectMap) NumFailedLinks() int {
	if d == nil {
		return 0
	}
	return d.numLinks
}

// HealthyCores returns the number of non-dead cores. A nil map reports the
// full mesh only through its callers (it has no mesh), so callers holding a
// nil map should use mesh.Cores() directly.
func (d *DefectMap) HealthyCores() int { return d.mesh.Cores() - d.numDead }

// Clone returns a deep copy.
func (d *DefectMap) Clone() *DefectMap {
	if d == nil {
		return nil
	}
	q := &DefectMap{mesh: d.mesh, numDead: d.numDead, numLinks: d.numLinks}
	q.dead = append([]bool(nil), d.dead...)
	if d.linkDown != nil {
		q.linkDown = append([]bool(nil), d.linkDown...)
	}
	return q
}

// Injectors. All are deterministic in (mesh, parameters, seed). InjectUniform
// additionally guarantees that growing deadFrac under the same seed produces
// nested dead-core sets, which the degradation tests rely on.

// InjectUniform kills round(deadFrac·cores) cores and round(linkFrac·links)
// links chosen uniformly at random — the independent-random-defect model of
// mature process nodes.
func InjectUniform(mesh Mesh, deadFrac, linkFrac float64, seed int64) *DefectMap {
	d := NewDefectMap(mesh)
	rng := rand.New(rand.NewSource(seed))
	nDead := int(deadFrac*float64(mesh.Cores()) + 0.5)
	if nDead > mesh.Cores() {
		nDead = mesh.Cores()
	}
	for _, idx := range rng.Perm(mesh.Cores())[:nDead] {
		d.MarkDead(idx)
	}
	links := allLinks(mesh)
	nLinks := int(linkFrac*float64(len(links)) + 0.5)
	if nLinks > len(links) {
		nLinks = len(links)
	}
	for _, li := range rng.Perm(len(links))[:nLinks] {
		d.FailLink(links[li][0], links[li][1])
	}
	return d
}

// InjectClustered kills round(deadFrac·cores) cores in `blobs` radial
// clusters — the spatially correlated defect pattern of particle strikes and
// localized process variation. Blob centers are uniform; each blob grows
// outward by Manhattan rings until its share of the budget is spent.
func InjectClustered(mesh Mesh, deadFrac float64, blobs int, seed int64) *DefectMap {
	d := NewDefectMap(mesh)
	rng := rand.New(rand.NewSource(seed))
	budget := int(deadFrac*float64(mesh.Cores()) + 0.5)
	if budget > mesh.Cores() {
		budget = mesh.Cores()
	}
	if blobs < 1 {
		blobs = 1
	}
	centers := rng.Perm(mesh.Cores())
	if len(centers) > blobs {
		centers = centers[:blobs]
	}
	for bi, center := range centers {
		share := budget / len(centers)
		if bi < budget%len(centers) {
			share++
		}
		c := mesh.Coord(center)
		for r := 0; share > 0 && r <= mesh.Rows+mesh.Cols; r++ {
			for _, pt := range ring(c, r, mesh) {
				idx := mesh.Index(pt)
				if !d.IsDead(idx) {
					d.MarkDead(idx)
					share--
					if share == 0 {
						break
					}
				}
			}
		}
	}
	return d
}

// InjectLines kills `rows` whole mesh rows and `cols` whole columns chosen
// at random — the row/column failure pattern of shared power rails and
// column drivers.
func InjectLines(mesh Mesh, rows, cols int, seed int64) *DefectMap {
	d := NewDefectMap(mesh)
	rng := rand.New(rand.NewSource(seed))
	if rows > mesh.Rows {
		rows = mesh.Rows
	}
	if cols > mesh.Cols {
		cols = mesh.Cols
	}
	for _, r := range rng.Perm(mesh.Rows)[:rows] {
		for c := 0; c < mesh.Cols; c++ {
			d.MarkDead(r*mesh.Cols + c)
		}
	}
	for _, c := range rng.Perm(mesh.Cols)[:cols] {
		for r := 0; r < mesh.Rows; r++ {
			d.MarkDead(r*mesh.Cols + c)
		}
	}
	return d
}

// ring enumerates the in-mesh points at exactly Manhattan distance r from c
// in a deterministic order (r = 0 yields c itself).
func ring(c geom.Point, r int, mesh Mesh) []geom.Point {
	if r == 0 {
		return []geom.Point{c}
	}
	var out []geom.Point
	for dx := -r; dx <= r; dx++ {
		dy := r - geom.Abs(dx)
		for _, p := range [...]geom.Point{{X: c.X + dx, Y: c.Y + dy}, {X: c.X + dx, Y: c.Y - dy}} {
			if mesh.Contains(p) {
				out = append(out, p)
			}
			if dy == 0 {
				break // avoid double-counting the axis points
			}
		}
	}
	return out
}

// allLinks enumerates every mesh link as an ordered core-index pair.
func allLinks(mesh Mesh) [][2]int {
	var out [][2]int
	for idx := 0; idx < mesh.Cores(); idx++ {
		if idx%mesh.Cols != mesh.Cols-1 {
			out = append(out, [2]int{idx, idx + 1})
		}
		if idx+mesh.Cols < mesh.Cores() {
			out = append(out, [2]int{idx, idx + mesh.Cols})
		}
	}
	return out
}

// Serialization: a small explicit JSON schema so defect maps can be stored
// next to the chip they were measured on.

type defectJSON struct {
	Rows  int      `json:"rows"`
	Cols  int      `json:"cols"`
	Dead  []int    `json:"dead,omitempty"`
	Links [][2]int `json:"links,omitempty"`
}

// WriteDefectMap serializes the map as JSON.
func WriteDefectMap(w io.Writer, d *DefectMap) error {
	out := defectJSON{Rows: d.mesh.Rows, Cols: d.mesh.Cols}
	for idx, dd := range d.dead {
		if dd {
			out.Dead = append(out.Dead, idx)
		}
	}
	for _, l := range allLinks(d.mesh) {
		if d.LinkDownDir(l[0], linkDir(l[0], l[1], d.mesh)) {
			out.Links = append(out.Links, l)
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

func linkDir(a, b int, mesh Mesh) geom.Dir {
	if b == a+1 {
		return geom.Right
	}
	return geom.Down
}

// ReadDefectMap deserializes a map written by WriteDefectMap. A key the
// schema does not know (such as a per-core capacity list) is an error, not
// silently dropped.
func ReadDefectMap(r io.Reader) (*DefectMap, error) {
	var in defectJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("hw: decode defect map: %w", err)
	}
	mesh, err := NewMesh(in.Rows, in.Cols)
	if err != nil {
		return nil, fmt.Errorf("hw: defect map: %w", err)
	}
	d := NewDefectMap(mesh)
	for _, idx := range in.Dead {
		if idx < 0 || idx >= mesh.Cores() {
			return nil, fmt.Errorf("hw: defect map: dead core %d out of range for %v", idx, mesh)
		}
		d.MarkDead(idx)
	}
	for _, l := range in.Links {
		if err := d.FailLink(l[0], l[1]); err != nil {
			return nil, fmt.Errorf("hw: defect map: %w", err)
		}
	}
	return d, nil
}

// ParseDefectSpec builds a defect map from a compact CLI spec string:
//
//	none
//	uniform:dead=0.05,links=0.02,seed=7
//	clustered:dead=0.05,blobs=3,seed=7
//	lines:rows=1,cols=1,seed=7
//
// Omitted keys default to zero, except seed (1) and blobs (3). The dead and
// links fractions must lie in [0, 1], rows and cols must not be negative, and
// blobs must be at least 1.
func ParseDefectSpec(mesh Mesh, spec string) (*DefectMap, error) {
	kind, rest, _ := strings.Cut(spec, ":")
	kind = strings.TrimSpace(kind)
	if kind == "none" || kind == "" {
		return NewDefectMap(mesh), nil
	}
	kv := map[string]string{}
	if rest != "" {
		for _, part := range strings.Split(rest, ",") {
			k, v, ok := strings.Cut(part, "=")
			if !ok {
				return nil, fmt.Errorf("hw: defect spec %q: bad parameter %q (want key=value)", spec, part)
			}
			kv[strings.TrimSpace(k)] = strings.TrimSpace(v)
		}
	}
	getF := func(key string) (float64, error) {
		v, ok := kv[key]
		if !ok {
			return 0, nil
		}
		delete(kv, key)
		// !(f >= 0 && f <= 1) also rejects NaN.
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || !(f >= 0 && f <= 1) {
			return 0, fmt.Errorf("hw: defect spec %q: bad %s=%q (want a fraction in [0, 1])", spec, key, v)
		}
		return f, nil
	}
	getI := func(key string, def, min int) (int, error) {
		v, ok := kv[key]
		if !ok {
			return def, nil
		}
		delete(kv, key)
		n, err := strconv.Atoi(v)
		if err != nil || n < min {
			return 0, fmt.Errorf("hw: defect spec %q: bad %s=%q", spec, key, v)
		}
		return n, nil
	}
	fail := func(keys map[string]string) error {
		if len(keys) == 0 {
			return nil
		}
		var extras []string
		for k := range keys {
			extras = append(extras, k)
		}
		sort.Strings(extras)
		return fmt.Errorf("hw: defect spec %q: unknown parameters %v", spec, extras)
	}
	switch kind {
	case "uniform":
		dead, err := getF("dead")
		if err != nil {
			return nil, err
		}
		links, err := getF("links")
		if err != nil {
			return nil, err
		}
		seed, err := getI("seed", 1, math.MinInt)
		if err != nil {
			return nil, err
		}
		if err := fail(kv); err != nil {
			return nil, err
		}
		return InjectUniform(mesh, dead, links, int64(seed)), nil
	case "clustered":
		dead, err := getF("dead")
		if err != nil {
			return nil, err
		}
		blobs, err := getI("blobs", 3, 1)
		if err != nil {
			return nil, err
		}
		seed, err := getI("seed", 1, math.MinInt)
		if err != nil {
			return nil, err
		}
		if err := fail(kv); err != nil {
			return nil, err
		}
		return InjectClustered(mesh, dead, blobs, int64(seed)), nil
	case "lines":
		rows, err := getI("rows", 0, 0)
		if err != nil {
			return nil, err
		}
		cols, err := getI("cols", 0, 0)
		if err != nil {
			return nil, err
		}
		seed, err := getI("seed", 1, math.MinInt)
		if err != nil {
			return nil, err
		}
		if err := fail(kv); err != nil {
			return nil, err
		}
		return InjectLines(mesh, rows, cols, int64(seed)), nil
	}
	return nil, fmt.Errorf("hw: defect spec %q: unknown kind %q (none|uniform|clustered|lines)", spec, kind)
}
