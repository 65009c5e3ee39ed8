package snn

import "testing"

// Table 3 reference values; measured values must land close enough that the
// mapping experiments exercise the same problem scale (EXPERIMENTS.md
// records exact paper-vs-measured numbers).
func TestSyntheticFamilyExactShapes(t *testing.T) {
	cases := []struct {
		net          *Net
		neurons      int64
		synapses     int64
		synTolerance float64 // relative
	}{
		{DNN65K(), 65536, 805_306_368, 0},            // 3 × 16384² exactly
		{DNN16M(), 16_777_216, 4_329_327_034_368, 0}, // 63 × 262144²
		{DNN268M(), 268_435_456, 70_300_024_700_928, 0},
		{CNN65K(), 65536, 2_015_232, 0}, // 3 × 16384 × 41
		{CNN16M(), 16_777_216, 528_482_304, 0},
		{CNN268M(), 268_435_456, 8_044_678_594_560 / 1000, 1}, // loose check below
	}
	for _, c := range cases[:5] {
		if err := c.net.Validate(); err != nil {
			t.Fatalf("%s: %v", c.net.Name, err)
		}
		if got := c.net.NumNeurons(); got != c.neurons {
			t.Errorf("%s neurons = %d, want %d", c.net.Name, got, c.neurons)
		}
		if got := c.net.NumSynapses(); got != c.synapses {
			t.Errorf("%s synapses = %d, want %d", c.net.Name, got, c.synapses)
		}
	}
	// CNN_268M: 1023 conns × 262144 neurons × 30 = 8.04B.
	cnn := CNN268M()
	if got := cnn.NumSynapses(); got != int64(1023)*262144*30 {
		t.Errorf("CNN_268M synapses = %d", got)
	}
}

func TestDNN4BScale(t *testing.T) {
	n := DNN4B()
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := n.NumNeurons(); got != int64(16384)*262144 {
		t.Errorf("DNN_4B neurons = %d, want 4.29B", got)
	}
	if got := n.NumSynapses(); got < 1_000_000_000_000_000 {
		t.Errorf("DNN_4B synapses = %d, want >1e15 (paper: 1125T)", got)
	}
	if len(n.Layers) != 16384 {
		t.Errorf("DNN_4B layers = %d, want 16384", len(n.Layers))
	}
}

// zooRange asserts a measured value is within [lo, hi].
func zooRange(t *testing.T, name, what string, got, lo, hi int64) {
	t.Helper()
	if got < lo || got > hi {
		t.Errorf("%s %s = %d, want within [%d, %d]", name, what, got, lo, hi)
	}
}

func TestZooScales(t *testing.T) {
	cases := []struct {
		net                *Net
		nLo, nHi, sLo, sHi int64
		paperN, paperS     int64
	}{
		// paper: LeNet-MNIST 9118 / 0.4M
		{LeNetMNIST(), 8_500, 9_500, 350_000, 500_000, 9118, 400_000},
		// paper: LeNet-ImageNet 1.0M / 188M
		{LeNetImageNet(), 900_000, 1_100_000, 150_000_000, 220_000_000, 1_000_000, 188_000_000},
		// paper: AlexNet 0.9M / 1.0B
		{AlexNet(), 850_000, 1_000_000, 600_000_000, 1_200_000_000, 900_000, 1_000_000_000},
		// paper: MobileNet 6.9M / 0.5B
		{MobileNet(), 4_500_000, 7_500_000, 400_000_000, 700_000_000, 6_900_000, 500_000_000},
		// paper: InceptionV3 14.6M / 5.4B
		{InceptionV3(), 9_000_000, 16_000_000, 4_000_000_000, 8_000_000_000, 14_600_000, 5_400_000_000},
		// paper: ResNet 28.5M / 11.6B
		{ResNet(), 18_000_000, 30_000_000, 9_000_000_000, 13_000_000_000, 28_500_000, 11_600_000_000},
	}
	for _, c := range cases {
		if err := c.net.Validate(); err != nil {
			t.Fatalf("%s: %v", c.net.Name, err)
		}
		zooRange(t, c.net.Name, "neurons", c.net.NumNeurons(), c.nLo, c.nHi)
		zooRange(t, c.net.Name, "synapses", c.net.NumSynapses(), c.sLo, c.sHi)
	}
}

func TestLeNetMNISTLayerStructure(t *testing.T) {
	n := LeNetMNIST()
	if len(n.Layers) != 8 {
		t.Fatalf("LeNet-5 should have 8 layers (incl. input), got %d", len(n.Layers))
	}
	// The classic feature map sizes.
	want := []int64{784, 4704, 1176, 1600, 400, 120, 84, 10}
	for i, w := range want {
		if n.Layers[i].Neurons != w {
			t.Errorf("layer %d (%s) = %d neurons, want %d", i, n.Layers[i].Name, n.Layers[i].Neurons, w)
		}
	}
}

func TestResNetHasShortcuts(t *testing.T) {
	n := ResNet()
	oneToOne := 0
	for _, c := range n.Conns {
		if c.Pattern == OneToOne && c.FanIn >= 1 {
			oneToOne++
		}
	}
	// 50 bottleneck blocks (3+8+36+3) plus pools; at least the 50 shortcuts.
	if oneToOne < 50 {
		t.Errorf("ResNet has %d one-to-one connections, want >= 50 shortcuts", oneToOne)
	}
	// The DAG must have more connections than layers (shortcuts branch).
	if len(n.Conns) <= len(n.Layers) {
		t.Errorf("ResNet conns %d should exceed layers %d", len(n.Conns), len(n.Layers))
	}
}

func TestMobileNetDepthwisePattern(t *testing.T) {
	n := MobileNet()
	dw := 0
	for i, l := range n.Layers {
		if len(l.Name) >= 2 && l.Name[:2] == "dw" {
			dw++
			// The connection feeding a depthwise layer must be OneToOne.
			for _, c := range n.Conns {
				if c.To == i && c.Pattern != OneToOne {
					t.Errorf("depthwise layer %s fed by %v pattern", l.Name, c.Pattern)
				}
			}
		}
	}
	if dw != 13 {
		t.Errorf("MobileNet v1 has %d depthwise layers, want 13", dw)
	}
}

func TestInceptionModulesBranch(t *testing.T) {
	n := InceptionV3()
	// Concat layers fan in from multiple branch tails.
	concats := 0
	for i, l := range n.Layers {
		if len(l.Name) > 7 && l.Name[len(l.Name)-7:] == "_concat" {
			concats++
			in := 0
			for _, c := range n.Conns {
				if c.To == i {
					in++
				}
			}
			if in != 4 {
				t.Errorf("concat %s has %d inputs, want 4 branches", l.Name, in)
			}
		}
	}
	if concats != 9 {
		t.Errorf("InceptionV3 has %d modules, want 9 (3A+4B+2C)", concats)
	}
}

// TestSynthInvalidFailsValidate: the synthetic builders build the layers
// they are asked for, and Validate rejects the invalid specs.
func TestSynthInvalidFailsValidate(t *testing.T) {
	if n := SynthDNN("x", 1, 10); len(n.Layers) != 1 || len(n.Conns) != 0 || n.Validate() != nil {
		t.Errorf("one-layer SynthDNN: %d layers, %d conns, Validate %v", len(n.Layers), len(n.Conns), n.Validate())
	}
	for name, n := range map[string]*Net{
		"zero layers":     SynthDNN("x", 0, 10),
		"negative layers": SynthCNN("x", -1, 10, 9, 2),
		"zero width":      SynthDNN("x", 3, 0),
		"zero fan-in":     SynthCNN("x", 3, 10, 0, 2),
		"negative width":  SynthCNN("x", 2, -4, 9, 2),
	} {
		if n.Validate() == nil {
			t.Errorf("%s: Validate accepted the net", name)
		}
	}
}
