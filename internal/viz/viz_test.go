package viz

import (
	"bytes"
	"strings"
	"testing"

	"snnmap/internal/hw"
	"snnmap/internal/pcn"
	"snnmap/internal/place"
	"snnmap/internal/snn"
)

func TestHeatmap(t *testing.T) {
	var buf bytes.Buffer
	grid := []float64{0, 1, 2, 4}
	if err := Heatmap(&buf, grid, 2, 2); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(buf.String(), "\n")
	if len(lines) < 3 {
		t.Fatalf("output:\n%s", buf.String())
	}
	// The maximum cell renders the hottest glyph; the zero cell a space.
	if lines[0][0] != ' ' {
		t.Errorf("zero cell = %q", lines[0][0])
	}
	if lines[1][1] != '@' {
		t.Errorf("max cell = %q", lines[1][1])
	}
	if !strings.Contains(lines[2], "scale") {
		t.Error("missing legend")
	}
	if err := Heatmap(&buf, grid, 3, 3); err == nil {
		t.Error("size mismatch accepted")
	}
}

func TestHeatmapAllZero(t *testing.T) {
	var buf bytes.Buffer
	if err := Heatmap(&buf, []float64{0, 0}, 1, 2); err != nil {
		t.Fatal(err)
	}
	if buf.String()[:2] != "  " {
		t.Errorf("zero grid rendered %q", buf.String()[:2])
	}
}

func layeredPlacement(t *testing.T) (*pcn.PCN, *place.Placement) {
	t.Helper()
	g := snn.FullyConnected(3, 4)
	res, err := pcn.Partition(g, pcn.PartitionConfig{
		Constraints: hw.Constraints{NeuronsPerCore: 2}, SplitAtLayers: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := place.Sequential(res.PCN.NumClusters, hw.MustMesh(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	return res.PCN, pl
}

func TestLayerMap(t *testing.T) {
	p, pl := layeredPlacement(t)
	var buf bytes.Buffer
	if err := LayerMap(&buf, p, pl); err != nil {
		t.Fatal(err)
	}
	// 6 clusters sequentially on a 3x3 mesh: rows "00", "11", "22" + empties.
	want := "001\n122\n...\n"
	if buf.String() != want {
		t.Errorf("layer map = %q, want %q", buf.String(), want)
	}
	// Mismatched pair rejected.
	short, _ := place.Sequential(2, hw.MustMesh(2, 2))
	if err := LayerMap(&buf, p, short); err == nil {
		t.Error("mismatch accepted")
	}
}
