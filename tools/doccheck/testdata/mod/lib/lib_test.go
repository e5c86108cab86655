package lib

import "testing"

func TestGauge(t *testing.T) {
	var g Gauge
	g.Add()
	if g.v != 1 {
		t.Fatal(g.v)
	}
}
