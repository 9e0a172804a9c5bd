package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed: percentile must sort
	}
	return xs
}

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		name   string
		n      int
		p      float64
		wantP  float64
		wantV  float64
		beyond int
	}{
		{"p99 supported", 1000, 99, 99, 990, 10},
		{"p90 supported", 100, 90, 90, 90, 10},
		{"p99 falls back to the highest with ten beyond", 500, 99, 98, 490, 10},
		{"p90 falls back", 50, 90, 80, 40, 10},
		{"too few for any tail: median", 12, 90, 50, 6, 6},
		{"median exempt", 5, 50, 50, 3, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := percentile(seq(c.n), c.p)
			if got.P != c.wantP || got.Value != c.wantV || got.N != c.n {
				t.Fatalf("percentile(n=%d, p%v) = %+v, want p%v value %v n %d", c.n, c.p, got, c.wantP, c.wantV, c.n)
			}
			if beyond := c.n - int(got.Value); beyond != c.beyond {
				t.Fatalf("%d samples beyond, want %d", beyond, c.beyond)
			}
		})
	}
	if got := percentile(nil, 90); got.N != 0 || got.Value != 0 {
		t.Fatalf("empty sample: %+v", got)
	}
}
