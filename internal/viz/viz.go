// Package viz renders placements and metric grids as terminal-friendly
// text: shaded heatmaps of router congestion (Eq. 13) and layer maps showing
// where each application layer landed on the mesh. The renderings make the
// paper's qualitative claims inspectable — the U-shaped dataflow layout of
// the Hilbert placement (Figure 5) is directly visible in a layer map.
package viz

import (
	"bufio"
	"fmt"
	"io"

	"snnmap/internal/pcn"
	"snnmap/internal/place"
)

// shades are the heatmap glyphs from cold to hot.
var shades = []byte(" .:-=+*#%@")

// Heatmap renders a row-major metric grid as shaded text, one character per
// mesh cell, normalized to the grid maximum. Rows end in newlines; a legend
// line reports the scale.
func Heatmap(w io.Writer, grid []float64, rows, cols int) error {
	if len(grid) != rows*cols {
		return fmt.Errorf("viz: grid length %d does not match %dx%d", len(grid), rows, cols)
	}
	var max float64
	for _, v := range grid {
		if v > max {
			max = v
		}
	}
	bw := bufio.NewWriter(w)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			bw.WriteByte(shadeOf(grid[r*cols+c], max))
		}
		bw.WriteByte('\n')
	}
	fmt.Fprintf(bw, "scale: ' '=0 .. '@'=%.4g\n", max)
	return bw.Flush()
}

func shadeOf(v, max float64) byte {
	if max <= 0 || v <= 0 {
		return shades[0]
	}
	idx := int(v / max * float64(len(shades)-1))
	if idx >= len(shades) {
		idx = len(shades) - 1
	}
	return shades[idx]
}

// layerGlyphs label layers 0..61 with digits and letters; deeper layers
// wrap around.
const layerGlyphs = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"

// LayerMap renders which application layer occupies each core: '.' for
// empty cores, a wrapping digit/letter per layer otherwise. For layered
// networks mapped with the Hilbert pipeline the characteristic serpentine
// dataflow bands of Figure 5 appear.
func LayerMap(w io.Writer, p *pcn.PCN, pl *place.Placement) error {
	if p.NumClusters != len(pl.PosOf) {
		return fmt.Errorf("viz: PCN has %d clusters, placement %d", p.NumClusters, len(pl.PosOf))
	}
	mesh := pl.Mesh
	bw := bufio.NewWriter(w)
	for r := 0; r < mesh.Rows; r++ {
		for c := 0; c < mesh.Cols; c++ {
			cluster := pl.ClusterAt[r*mesh.Cols+c]
			if cluster == place.None {
				bw.WriteByte('.')
				continue
			}
			layer := p.Layer[cluster]
			if layer < 0 {
				bw.WriteByte('?')
				continue
			}
			bw.WriteByte(layerGlyphs[int(layer)%len(layerGlyphs)])
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}
