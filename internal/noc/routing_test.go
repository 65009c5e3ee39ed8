package noc

import (
	"testing"

	"snnmap/internal/geom"
	"snnmap/internal/hw"
)

// walk follows next from src until it returns local, returning the routers
// visited (src and dst included).
func walk(t *testing.T, s *simState, src, dst int, next func(idx int, dst int32) int) []int {
	t.Helper()
	path := []int{src}
	for idx := src; ; {
		port := next(idx, int32(dst))
		if port == local {
			if idx != dst {
				t.Fatalf("route from %d toward %d delivers at %d", src, dst, idx)
			}
			return path
		}
		if !s.portOnMesh(idx, port) {
			t.Fatalf("route from %d toward %d leaves the mesh at %d (port %d)", src, dst, idx, port)
		}
		idx = s.neighbor(idx, port)
		path = append(path, idx)
		if len(path) > s.cores {
			t.Fatalf("route from %d toward %d does not terminate", src, dst)
		}
	}
}

func TestRouteYXPath(t *testing.T) {
	// routeYX (row-first), the productive alternative a fault-aware detour
	// offers, takes the other L than route: (0,0)→(2,0)→(2,3).
	mesh := hw.MustMesh(3, 4)
	s := &simState{mesh: mesh, cores: mesh.Cores()}
	src, dst := mesh.Index(geom.Point{X: 0, Y: 0}), mesh.Index(geom.Point{X: 2, Y: 3})
	want := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 2, Y: 0}, {X: 2, Y: 1}, {X: 2, Y: 2}, {X: 2, Y: 3}}
	got := walk(t, s, src, dst, s.routeYX)
	if len(got) != len(want) {
		t.Fatalf("YX path visits %d routers, want %d", len(got), len(want))
	}
	for i, idx := range got {
		if mesh.Coord(idx) != want[i] {
			t.Errorf("YX path step %d at %v, want %v", i, mesh.Coord(idx), want[i])
		}
	}
}

func TestRoutingEnergyInvariant(t *testing.T) {
	// Both dimension orders are minimal: between any two routers they
	// cross the same number of links and routers (the Manhattan distance
	// plus one), so a detour's row-first step costs no more energy than
	// the column-first one it replaces.
	mesh := hw.MustMesh(4, 5)
	s := &simState{mesh: mesh, cores: mesh.Cores()}
	for src := 0; src < s.cores; src++ {
		for dst := 0; dst < s.cores; dst++ {
			xy, yx := walk(t, s, src, dst, s.route), walk(t, s, src, dst, s.routeYX)
			a, b := mesh.Coord(src), mesh.Coord(dst)
			hops := geom.Manhattan(a, b)
			if len(xy) != hops+1 || len(yx) != hops+1 {
				t.Fatalf("%v→%v: XY visits %d routers, YX %d, want %d", a, b, len(xy), len(yx), hops+1)
			}
		}
	}
}
