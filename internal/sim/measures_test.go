package sim

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/stats"
)

// reportResults is a hand-built Results whose intervals and totals are all
// distinct, so a swapped row or label in the report shows up.
func reportResults() Results {
	return Results{
		CarriedDataTraffic:      stats.Interval{Mean: 1.5, HalfWidth: 0.25},
		PacketLossProbability:   stats.Interval{Mean: 0.0125, HalfWidth: 0.003},
		QueueingDelay:           stats.Interval{Mean: 2.75, HalfWidth: 0.5},
		ThroughputBits:          stats.Interval{Mean: 23456.7, HalfWidth: 1234.5},
		ThroughputPerUserBits:   stats.Interval{Mean: 4096, HalfWidth: math.Inf(1)},
		AverageSessions:         stats.Interval{Mean: 5.5, HalfWidth: 1},
		CarriedVoiceTraffic:     stats.Interval{Mean: 18.25, HalfWidth: 0.125},
		GSMBlockingProbability:  stats.Interval{Mean: 0.5, HalfWidth: 0.0625},
		GPRSBlockingProbability: stats.Interval{},
		MeanQueueLength:         stats.Interval{Mean: 33.125, HalfWidth: 5.75},
		PacketsOffered:          20024, PacketsLost: 21, PacketsDelivered: 19784,
		HandoversIn: 927, HandoversOut: 1174, TCPTimeouts: 4523, TCPFastRecovers: 608,
		SimulatedSec: 3200, Events: 1542071,
	}
}

// reportGolden is the text report of reportResults, byte for byte: the
// stdout format of gprs-sim.
const reportGolden = `mid-cell results over 3200 s (1542071 events)
  CDT (PDCHs)          1.5 ± 0.25
  PLP                  0.0125 ± 0.003
  QD (s)               2.75 ± 0.5
  throughput (bit/s)   23456.7 ± 1.23e+03
  ATU (bit/s)          4096 ± +Inf
  AGS (sessions)       5.5 ± 1
  CVT (channels)       18.25 ± 0.125
  GSM blocking         0.5 ± 0.0625
  GPRS blocking        0 ± 0
  mean queue length    33.125 ± 5.75
  offered=20024 lost=21 delivered=19784 handovers in/out=927/1174 tcp timeouts=4523 fast recoveries=608
`

// TestResultsStringPinned pins the text report byte for byte: its row labels
// and order come from the measure table.
func TestResultsStringPinned(t *testing.T) {
	if got := reportResults().String(); got != reportGolden {
		t.Errorf("report changed:\n%s\nwant:\n%s", got, reportGolden)
	}
}

func TestParseMeasure(t *testing.T) {
	for _, name := range MeasureNames() {
		m, err := ParseMeasure(name)
		if err != nil {
			t.Fatalf("ParseMeasure(%q): %v", name, err)
		}
		if m.String() != name {
			t.Errorf("ParseMeasure(%q).String() = %q", name, m.String())
		}
	}
	if _, err := ParseMeasure("bogus"); err == nil {
		t.Error("ParseMeasure should reject unknown names")
	}
	if m, _ := ParseMeasure("THROUGHPUT"); m != MeasureThroughput {
		t.Error("ParseMeasure should be case-insensitive")
	}
	var r Results
	r.ThroughputBits = stats.Interval{Mean: 5}
	if iv := r.Interval(MeasureThroughput); iv.Mean != 5 {
		t.Errorf("Results.Interval accessor broken: %+v", iv)
	}
	for _, m := range []Measure{-1, NumMeasures} {
		if m.Valid() {
			t.Errorf("measure %d should be invalid", int(m))
		}
	}
}

// fieldNames maps the address of every field of the struct *p to its name.
func fieldNames(p any) map[uintptr]string {
	v := reflect.ValueOf(p).Elem()
	names := make(map[uintptr]string, v.NumField())
	for i := range v.NumField() {
		names[v.Field(i).Addr().Pointer()] = v.Type().Field(i).Name
	}
	return names
}

// TestMeasureTables checks the mid-cell and per-cell measure tables: every
// row has a unique non-empty name (and report label), every accessor returns
// a distinct field, the per-cell float and interval accessors of one row
// name the same field, and the flag names keep their order.
func TestMeasureTables(t *testing.T) {
	want := []string{"throughput", "cdt", "plp", "qd", "atu", "ags", "cvt", "gsm-blocking", "gprs-blocking", "queue"}
	if got := MeasureNames(); !slices.Equal(got, want) {
		t.Errorf("MeasureNames() = %v, want %v", got, want)
	}

	var r Results
	rFields := fieldNames(&r)
	names, labels, used := map[string]bool{}, map[string]bool{}, map[string]bool{}
	for m := range NumMeasures {
		def := measures[m]
		if def.name == "" || names[def.name] || def.label == "" || labels[def.label] {
			t.Errorf("measure %d: empty or duplicate name %q or label %q", m, def.name, def.label)
		}
		names[def.name], labels[def.label] = true, true
		f := rFields[reflect.ValueOf(r.Interval(m)).Pointer()]
		if f == "" || used[f] {
			t.Errorf("measure %s: accessor returns %q, not a distinct Results field", m, f)
		}
		used[f] = true
	}

	var cm CellMeasures
	var ci CellIntervals
	cmFields, ciFields := fieldNames(&cm), fieldNames(&ci)
	names, usedM := map[string]bool{}, map[string]bool{}
	for k := range NumCellMeasures {
		name := cellMeasures[k].name
		if name == "" || names[name] {
			t.Errorf("per-cell measure %d: empty or duplicate name %q", k, name)
		}
		names[name] = true
		fm := cmFields[reflect.ValueOf(cm.Measure(k)).Pointer()]
		fi := ciFields[reflect.ValueOf(ci.Interval(k)).Pointer()]
		if fm == "" || usedM[fm] {
			t.Errorf("per-cell measure %s: accessor returns %q, not a distinct CellMeasures field", name, fm)
		}
		usedM[fm] = true
		if fi != fm {
			t.Errorf("per-cell measure %s: interval field %q differs from measure field %q", name, fi, fm)
		}
	}
	// Every float of CellMeasures and every interval of CellIntervals has a
	// row, so the replication merge covers them all.
	for i := range reflect.TypeOf(cm).NumField() {
		if f := reflect.TypeOf(cm).Field(i); f.Type.Kind() == reflect.Float64 && !usedM[f.Name] {
			t.Errorf("CellMeasures.%s has no per-cell measure row", f.Name)
		}
	}
	for i := range reflect.TypeOf(ci).NumField() {
		if f := reflect.TypeOf(ci).Field(i); f.Type == reflect.TypeOf(stats.Interval{}) && !usedM[f.Name] {
			t.Errorf("CellIntervals.%s has no per-cell measure row", f.Name)
		}
	}
}
