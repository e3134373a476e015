package mem

import (
	"testing"

	"dopia/internal/access"
)

func TestCoalesceFactor(t *testing.T) {
	const w = 16
	cases := []struct {
		name   string
		p      access.Pattern
		stride int64
		want   float64
	}{
		{"constant broadcast", access.Constant, 0, 1.0 / w},
		{"continuous float", access.Continuous, 1, 1.0 / w},
		{"stride 2", access.Strided, 2, 8.0 / (LineSize / 4.0) / w * (LineSize / 4.0 / 8.0) * (2 * 4 * w / LineSize) / (2 * 4 * w / LineSize)}, // computed below
		{"stride >= line", access.Strided, 16, 1},
		{"symbolic stride", access.Strided, 0, 1},
		{"random", access.Random, 0, 1},
	}
	for _, c := range cases {
		got := CoalesceFactor(c.p, c.stride, 4, w)
		switch c.name {
		case "stride 2":
			// 16 lanes * 8B span = 128B = 2 lines -> 2/16 per access.
			if got != 2.0/w {
				t.Errorf("%s: got %v, want %v", c.name, got, 2.0/w)
			}
		default:
			if got != c.want {
				t.Errorf("%s: got %v, want %v", c.name, got, c.want)
			}
		}
	}
	// Continuous must always beat strided/random.
	if CoalesceFactor(access.Continuous, 1, 4, w) >= CoalesceFactor(access.Random, 0, 4, w) {
		t.Error("continuous should coalesce better than random")
	}
}

func TestCPUStreamFactor(t *testing.T) {
	if CPUStreamFactor(access.Constant, 0, 4) != 0 {
		t.Error("constant should be cache-resident")
	}
	if CPUStreamFactor(access.Continuous, 1, 4) != 1 {
		t.Error("continuous should fetch exactly its bytes")
	}
	if f := CPUStreamFactor(access.Random, 0, 4); f != LineSize/4.0 {
		t.Errorf("random factor = %v, want %v", f, LineSize/4.0)
	}
	if f := CPUStreamFactor(access.Strided, 100, 4); f != LineSize/4.0 {
		t.Errorf("large stride factor = %v, want line per access", f)
	}
}

func TestThrashFraction(t *testing.T) {
	if ThrashFraction(100, 200) != 0 {
		t.Error("resident working set must not thrash")
	}
	// Half-capacity overflow exhausts the transition window.
	if f := ThrashFraction(160, 100); f != 1 {
		t.Errorf("thrash = %v, want 1 past the cliff", f)
	}
	// Within the window the loss ramps linearly.
	if f := ThrashFraction(125, 100); f != 0.5 {
		t.Errorf("thrash = %v, want 0.5 mid-window", f)
	}
	if ThrashFraction(100, 0) != 1 {
		t.Error("no cache means full thrash")
	}
	if ThrashFraction(0, 100) != 0 {
		t.Error("empty working set cannot thrash")
	}
}

func TestRandomMissRatio(t *testing.T) {
	if RandomMissRatio(1000, 2000) != 0 {
		t.Error("resident buffer: no capacity misses")
	}
	if r := RandomMissRatio(2000, 500); r != 0.75 {
		t.Errorf("miss ratio = %v, want 0.75", r)
	}
	if RandomMissRatio(100, 0) != 1 {
		t.Error("no cache: all miss")
	}
}
