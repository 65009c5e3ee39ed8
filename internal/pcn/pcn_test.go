package pcn

import (
	"math/rand"
	"testing"
	"testing/quick"

	"snnmap/internal/snn"
)

// smallPCN builds a hand-checked PCN: 3 clusters, edges 0→1 (w 2), 0→2
// (w 1), 1→0 (w 3), parallel 0→1 (w 4, merged to 6).
func smallPCN(t *testing.T) *PCN {
	t.Helper()
	p := &PCN{
		Name:        "small",
		NumClusters: 3,
		Neurons:     []int32{2, 2, 1},
		Synapses:    []int64{4, 4, 2},
		Layer:       []int32{0, 1, 1},
	}
	from := []int32{0, 0, 1, 0}
	to := []int32{1, 2, 0, 1}
	w := []float64{2, 1, 3, 4}
	buildCSR(p, from, to, w)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBuildCSRMergesParallelEdges(t *testing.T) {
	p := smallPCN(t)
	if p.NumEdges() != 3 {
		t.Fatalf("edges = %d, want 3 (parallel merged)", p.NumEdges())
	}
	tos, ws := p.OutEdges(0)
	if len(tos) != 2 || tos[0] != 1 || ws[0] != 6 || tos[1] != 2 || ws[1] != 1 {
		t.Errorf("cluster 0 edges: %v %v", tos, ws)
	}
	if p.TotalWeight() != 10 {
		t.Errorf("total weight = %g, want 10", p.TotalWeight())
	}
}

func TestPCNStats(t *testing.T) {
	p := smallPCN(t)
	deg := p.InDegrees()
	if deg[0] != 1 || deg[1] != 1 || deg[2] != 1 {
		t.Errorf("in-degrees %v", deg)
	}
	if p.NumLayers() != 2 {
		t.Errorf("layers = %d, want 2", p.NumLayers())
	}
}

func TestUndirectedCombinesDirections(t *testing.T) {
	p := smallPCN(t)
	u := p.Undirected()
	// 0↔1 combined weight = 6 + 3 = 9; 0↔2 = 1.
	tos, ws := u.Neighbors(0)
	if len(tos) != 2 || tos[0] != 1 || ws[0] != 9 || tos[1] != 2 || ws[1] != 1 {
		t.Fatalf("undirected neighbors of 0: %v %v", tos, ws)
	}
	if u.Degree(1) != 1 || u.Degree(2) != 1 {
		t.Errorf("degrees: %d %d", u.Degree(1), u.Degree(2))
	}
	// Memoized.
	if p.Undirected() != u {
		t.Error("Undirected must be cached")
	}
}

func TestUndirectedSymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(20) + 2
		p := &PCN{NumClusters: n,
			Neurons:  make([]int32, n),
			Synapses: make([]int64, n),
			Layer:    make([]int32, n),
		}
		e := rng.Intn(60)
		from := make([]int32, 0, e)
		to := make([]int32, 0, e)
		w := make([]float64, 0, e)
		for i := 0; i < e; i++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a == b {
				continue
			}
			from = append(from, int32(a))
			to = append(to, int32(b))
			w = append(w, float64(rng.Intn(5)+1))
		}
		buildCSR(p, from, to, w)
		u := p.Undirected()
		// Symmetry: weight(i,j) == weight(j,i), and total undirected weight
		// equals total directed weight (each direction contributes once).
		var undirTotal float64
		for i := 0; i < n; i++ {
			tos, ws := u.Neighbors(i)
			for k, j := range tos {
				undirTotal += ws[k]
				if wBack := lookup(u, int(j), int32(i)); wBack != ws[k] {
					return false
				}
			}
		}
		return undirTotal == 2*p.TotalWeight()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func lookup(u *Undirected, from int, to int32) float64 {
	tos, ws := u.Neighbors(from)
	for k, j := range tos {
		if j == to {
			return ws[k]
		}
	}
	return -1
}

func TestValidateCatchesCorruption(t *testing.T) {
	p := smallPCN(t)

	bad := *p
	bad.Neurons = bad.Neurons[:2]
	if bad.Validate() == nil {
		t.Error("short Neurons must fail")
	}

	bad = *p
	bad.OutTo = append([]int32(nil), p.OutTo...)
	bad.OutTo[0] = 99
	if bad.Validate() == nil {
		t.Error("out-of-range target must fail")
	}

	bad = *p
	bad.OutTo = append([]int32(nil), p.OutTo...)
	bad.OutTo[0] = 0 // self edge at cluster 0
	if bad.Validate() == nil {
		t.Error("self edge must fail")
	}

	bad = *p
	bad.OutW = append([]float64(nil), p.OutW...)
	bad.OutW[0] = -2
	if bad.Validate() == nil {
		t.Error("negative weight must fail")
	}
}

func TestExpandThenValidateWholeZoo(t *testing.T) {
	nets := []*snn.Net{
		snn.DNN65K(), snn.CNN65K(), snn.LeNetMNIST(), snn.LeNetImageNet(),
		snn.AlexNet(), snn.MobileNet(),
	}
	for _, n := range nets {
		p, err := Expand(n, DefaultPartition())
		if err != nil {
			t.Fatalf("%s: %v", n.Name, err)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", n.Name, err)
		}
	}
}
