package expt

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"snnmap/internal/curve"
	"snnmap/internal/hw"
	"snnmap/internal/metrics"
)

func TestWorkloadRegistry(t *testing.T) {
	names := WorkloadNames()
	if len(names) != 13 {
		t.Fatalf("Table 3 has 13 workloads, registry has %d", len(names))
	}
	for _, name := range names {
		if _, err := WorkloadByName(name); err != nil {
			t.Errorf("lookup %q: %v", name, err)
		}
	}
	if _, err := WorkloadByName("nope"); err == nil {
		t.Error("unknown workload must fail")
	}
	tiny := Workloads(ScaleTiny)
	small := Workloads(ScaleSmall)
	medium := Workloads(ScaleMedium)
	full := Workloads(ScaleFull)
	if !(len(tiny) < len(small) && len(small) < len(medium) && len(medium) < len(full)) {
		t.Errorf("tier sizes must be strictly increasing: %d %d %d %d",
			len(tiny), len(small), len(medium), len(full))
	}
	if len(full) != 13 {
		t.Errorf("full tier must include everything, got %d", len(full))
	}
}

func TestWorkloadBuildTinyTier(t *testing.T) {
	for _, wl := range Workloads(ScaleTiny) {
		p, mesh, err := wl.Build()
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		if p.NumClusters > mesh.Cores() {
			t.Errorf("%s: %d clusters on %v", wl.Name, p.NumClusters, mesh)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", wl.Name, err)
		}
		// Cached: second build returns the same PCN.
		p2, _, _ := wl.Build()
		if p2 != p {
			t.Errorf("%s: Build must cache", wl.Name)
		}
	}
}

func TestMeshForMatchesTable3(t *testing.T) {
	cases := map[int]int{16: 4, 9: 3, 4096: 64, 65536: 256, 251: 16, 229: 16, 1688: 42, 3570: 60, 6956: 84, 1048576: 1024}
	for clusters, side := range cases {
		if m := hw.MeshFor(clusters); m.Rows != side || m.Cols != side {
			t.Errorf("hw.MeshFor(%d) = %v, want %dx%d", clusters, m, side, side)
		}
	}
}

func TestParseScale(t *testing.T) {
	for s, want := range map[string]Scale{"tiny": ScaleTiny, "small": ScaleSmall, "medium": ScaleMedium, "full": ScaleFull} {
		got, err := ParseScale(s)
		if err != nil || got != want {
			t.Errorf("ParseScale(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseScale("giant"); err == nil {
		t.Error("unknown scale must fail")
	}
}

func TestMethodRegistry(t *testing.T) {
	if got := len(Figure8Methods()); got != 10 {
		t.Errorf("Figure 8 has 10 methods, got %d", got)
	}
	if got := len(ComparisonMethods()); got != 5 {
		t.Errorf("comparison lineup has 5 methods, got %d", got)
	}
	for _, name := range []string{"Random", "HSC", "Proposed", "TrueNorth", "PSO", "DFSynthesizer"} {
		if _, err := MethodByName(name); err != nil {
			t.Errorf("MethodByName(%q): %v", name, err)
		}
	}
	if _, err := MethodByName("magic"); err == nil {
		t.Error("unknown method must fail")
	}
}

func TestAllMethodsProduceValidPlacements(t *testing.T) {
	wl, err := WorkloadByName("LeNet-MNIST")
	if err != nil {
		t.Fatal(err)
	}
	p, mesh, err := wl.Build()
	if err != nil {
		t.Fatal(err)
	}
	opts := RunOptions{Seed: 1, Budget: 5 * time.Second}
	for _, m := range append(Figure8Methods(), ComparisonMethods()[1:4]...) {
		pl, stats, err := m.Run(p, mesh, opts)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if err := pl.Validate(); err != nil {
			t.Errorf("%s: invalid placement: %v", m.Name, err)
		}
		if stats.Elapsed < 0 {
			t.Errorf("%s: negative elapsed", m.Name)
		}
	}
}

func TestTableRunners(t *testing.T) {
	var buf bytes.Buffer
	Table1(&buf)
	if !strings.Contains(buf.String(), "SpiNNaker") {
		t.Error("Table 1 missing SpiNNaker")
	}
	buf.Reset()
	Table2(&buf)
	if !strings.Contains(buf.String(), "CON_npc") {
		t.Error("Table 2 missing CON_npc")
	}
	buf.Reset()
	if err := Table3(&buf, ScaleTiny); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"DNN_65K", "CNN_65K", "LeNet-MNIST"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("Table 3 missing %s", want)
		}
	}
}

func TestFig6Runner(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig6(&buf, 1); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"hilbert", "zigzag", "circle", "Probability cloud"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig6 output missing %q", want)
		}
	}
}

func TestFig8Runner(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig8(&buf, "LeNet-MNIST", RunOptions{Seed: 1, Budget: 5 * time.Second}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "a) Random") || !strings.Contains(out, "j) HSC+FD(uc)") {
		t.Errorf("Fig8 output incomplete:\n%s", out)
	}
}

func TestSweepAndFigureRunners(t *testing.T) {
	rows, err := Sweep(ScaleTiny, RunOptions{Seed: 1, Budget: 5 * time.Second}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3*5 {
		t.Fatalf("sweep rows = %d, want 15 (3 workloads × 5 methods)", len(rows))
	}
	// The proposed method must beat Random on every tiny workload's energy.
	byWorkload := map[string]map[string]SweepRow{}
	for _, r := range rows {
		if byWorkload[r.Workload] == nil {
			byWorkload[r.Workload] = map[string]SweepRow{}
		}
		byWorkload[r.Workload][r.Method] = r
	}
	for wl, ms := range byWorkload {
		if ms["Proposed"].Norm.Energy > 1.0 {
			t.Errorf("%s: proposed normalized energy %.3f > 1", wl, ms["Proposed"].Norm.Energy)
		}
	}
	var buf bytes.Buffer
	for _, f := range []func(*bytes.Buffer) error{
		func(b *bytes.Buffer) error { return Fig9(b, rows) },
		func(b *bytes.Buffer) error { return Fig10(b, rows) },
		func(b *bytes.Buffer) error { return Fig11(b, rows) },
		func(b *bytes.Buffer) error { return Fig12(b, rows) },
	} {
		buf.Reset()
		if err := f(&buf); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), "DNN_65K") || !strings.Contains(buf.String(), "Proposed") {
			t.Errorf("figure output incomplete:\n%s", buf.String())
		}
	}
}

func TestFig13Runner(t *testing.T) {
	var buf bytes.Buffer
	Fig13(&buf)
	if !strings.Contains(buf.String(), "16x8") || !strings.Contains(buf.String(), "13x19") {
		t.Error("Fig13 output missing rectangle sizes")
	}
}

func TestHeadlineRunner(t *testing.T) {
	var buf bytes.Buffer
	if err := Headline(&buf, "DNN_65K", RunOptions{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "proposed approach solved in") {
		t.Errorf("headline output:\n%s", buf.String())
	}
}

func TestAblationRunner(t *testing.T) {
	var buf bytes.Buffer
	if err := Ablation(&buf, "LeNet-MNIST", RunOptions{Seed: 1, Budget: 5 * time.Second}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "λ sweep") || !strings.Contains(out, "l2sq") {
		t.Errorf("ablation output incomplete:\n%s", out)
	}
}

func TestRenderHelpers(t *testing.T) {
	if fmtDuration(500*time.Nanosecond) != "500ns" {
		t.Error(fmtDuration(500 * time.Nanosecond))
	}
	if fmtDuration(1500*time.Microsecond) != "1.5ms" {
		t.Error(fmtDuration(1500 * time.Microsecond))
	}
	if fmtDuration(90*time.Second) != "1.5m" {
		t.Error(fmtDuration(90 * time.Second))
	}
	if esMark(true) != " (ES)" || esMark(false) != "" {
		t.Error("esMark broken")
	}
	if humanCount(1_500_000) != "1.5M" || humanCount(42) != "42" {
		t.Errorf("humanCount: %s %s", humanCount(1_500_000), humanCount(42))
	}
	var buf bytes.Buffer
	RenderCurve(&buf, curve.ZigZag{}, 2, 3)
	want := "0 1 2 \n5 4 3 \n"
	if buf.String() != want {
		t.Errorf("RenderCurve = %q, want %q", buf.String(), want)
	}
}

func TestComparisonMethodsProduceValidPlacements(t *testing.T) {
	wl, err := WorkloadByName("CNN_65K")
	if err != nil {
		t.Fatal(err)
	}
	p, mesh, err := wl.Build()
	if err != nil {
		t.Fatal(err)
	}
	cmp := ComparisonMethods()
	if len(cmp) != 5 {
		t.Fatalf("comparison lineup has %d methods, want 5", len(cmp))
	}
	for _, m := range cmp {
		pl, _, err := m.Run(p, mesh, RunOptions{Seed: 1, Budget: 5 * time.Second})
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if err := pl.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

func TestMulticastRunner(t *testing.T) {
	var buf bytes.Buffer
	if err := Multicast(&buf, ScaleTiny, RunOptions{Seed: 1, Budget: 5 * time.Second}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"DNN_65K", "Saving", "%"} {
		if !strings.Contains(out, want) {
			t.Errorf("multicast output missing %q:\n%s", want, out)
		}
	}
}

// TestFigure8Shape pins the shape of Figure 8 on energy: HSC beats ZigZag and
// Circle, and for every potential x, HSC+FD(x) is no worse than HSC alone or
// than FD(x) from a random start. Every method runs unbudgeted, so the
// result does not depend on wall-clock time. The shape does not hold on
// every net, so two are left out: on LeNet-ImageNet ZigZag beats HSC
// (1.803e9 against 1.841e9), and on CNN_16M FD(ub) from a random start beats
// HSC+FD(ub) (4.448e9 against 4.539e9). ResNet's random-start FD runs take
// seconds and are skipped under -short.
func TestFigure8Shape(t *testing.T) {
	for _, name := range []string{"MobileNet", "ResNet"} {
		t.Run(name, func(t *testing.T) {
			if name == "ResNet" && testing.Short() {
				t.Skip("random-start FD on ResNet takes seconds")
			}
			wl, err := WorkloadByName(name)
			if err != nil {
				t.Fatal(err)
			}
			p, mesh, err := wl.Build()
			if err != nil {
				t.Fatal(err)
			}
			energy := map[string]float64{}
			for _, m := range Figure8Methods() {
				pl, _, err := m.Run(p, mesh, RunOptions{Seed: 1})
				if err != nil {
					t.Fatalf("%s: %v", m.Name, err)
				}
				energy[m.Name] = metrics.Evaluate(p, pl, hw.DefaultCostModel(), metrics.Options{Congestion: metrics.CongestionSkip}).Energy
			}
			for _, other := range []string{"ZigZag", "Circle"} {
				if !(energy["HSC"] < energy[other]) {
					t.Errorf("HSC energy %.6g not below %s %.6g", energy["HSC"], other, energy[other])
				}
			}
			for _, x := range []string{"ua", "ub", "uc"} {
				both, fd := energy["HSC+FD("+x+")"], energy["FD("+x+")"]
				if both > energy["HSC"] {
					t.Errorf("HSC+FD(%s) energy %.6g above HSC %.6g", x, both, energy["HSC"])
				}
				if both > fd {
					t.Errorf("HSC+FD(%s) energy %.6g above FD(%s) %.6g", x, both, x, fd)
				}
			}
		})
	}
}

// TestFigure10Shape pins the shape of Figure 10 on energy: the proposed
// approach beats TrueNorth on every Table 3 workload of 233 or more clusters
// below the 268M tier, except the locally connected CNN_16M, where
// TrueNorth's layer-by-layer placement wins (EXPERIMENTS.md, Figures 10–12,
// "Honest deviation"). Both methods run unbudgeted, so the result does not
// depend on wall-clock time. Proposed/TrueNorth at seed 1: DNN_16M 0.505,
// LeNet-ImageNet 0.799, AlexNet 0.811, MobileNet 0.630, InceptionV3 0.668,
// ResNet 0.871, CNN_16M 1.577.
func TestFigure10Shape(t *testing.T) {
	trueNorth, err := MethodByName("TrueNorth")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"DNN_16M", "CNN_16M", "LeNet-ImageNet", "AlexNet", "MobileNet", "InceptionV3", "ResNet"} {
		t.Run(name, func(t *testing.T) {
			wl, err := WorkloadByName(name)
			if err != nil {
				t.Fatal(err)
			}
			p, mesh, err := wl.Build()
			if err != nil {
				t.Fatal(err)
			}
			energy := map[string]float64{}
			for _, m := range []Method{Proposed(), trueNorth} {
				pl, _, err := m.Run(p, mesh, RunOptions{Seed: 1})
				if err != nil {
					t.Fatalf("%s: %v", m.Name, err)
				}
				energy[m.Name] = metrics.Evaluate(p, pl, hw.DefaultCostModel(), metrics.Options{Congestion: metrics.CongestionSkip}).Energy
			}
			prop, tn := energy["Proposed"], energy["TrueNorth"]
			t.Logf("%d clusters: Proposed/TrueNorth %.3f", p.NumClusters, prop/tn)
			if name == "CNN_16M" {
				if !(tn < prop) {
					t.Errorf("TrueNorth energy %.6g not below Proposed %.6g on the locally connected CNN", tn, prop)
				}
			} else if !(prop < tn) {
				t.Errorf("Proposed energy %.6g not below TrueNorth %.6g", prop, tn)
			}
		})
	}
}
