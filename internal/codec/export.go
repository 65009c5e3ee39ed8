package codec

import (
	"bufio"
	"fmt"
	"io"

	"snnmap/internal/pcn"
	"snnmap/internal/place"
)

// WriteDOT exports the PCN as a Graphviz digraph. Node labels carry cluster
// sizes; edge thickness attributes encode traffic. Graphs above maxEdges
// edges are truncated with a warning comment (0 means 10 000).
func WriteDOT(w io.Writer, p *pcn.PCN, maxEdges int) error {
	if maxEdges <= 0 {
		maxEdges = 10_000
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "digraph %q {\n", dotName(p.Name))
	fmt.Fprintln(bw, "  node [shape=circle fontsize=8];")
	for c := 0; c < p.NumClusters; c++ {
		fmt.Fprintf(bw, "  c%d [label=\"c%d\\n%dn\"];\n", c, c, p.Neurons[c])
	}
	var maxW float64
	for _, w := range p.OutW {
		if w > maxW {
			maxW = w
		}
	}
	written := 0
	for c := 0; c < p.NumClusters && written < maxEdges; c++ {
		tos, ws := p.OutEdges(c)
		for k, to := range tos {
			if written >= maxEdges {
				break
			}
			width := 1.0
			if maxW > 0 {
				width = 0.5 + 3*ws[k]/maxW
			}
			fmt.Fprintf(bw, "  c%d -> c%d [penwidth=%.2f weight=%g];\n", c, to, width, ws[k])
			written++
		}
	}
	if int64(written) < p.NumEdges() {
		fmt.Fprintf(bw, "  // %d of %d edges omitted (maxEdges=%d)\n", p.NumEdges()-int64(written), p.NumEdges(), maxEdges)
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}

func dotName(name string) string {
	if name == "" {
		return "pcn"
	}
	return name
}

// WritePlacementCSV exports a placement as cluster,row,col rows with a
// header, suitable for external plotting.
func WritePlacementCSV(w io.Writer, pl *place.Placement) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "cluster,row,col")
	for c := range pl.PosOf {
		pt := pl.Of(c)
		fmt.Fprintf(bw, "%d,%d,%d\n", c, pt.X, pt.Y)
	}
	return bw.Flush()
}
