package runner

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/probe"
	"repro/internal/stats"
)

// syntheticSeries builds a one-cell, two-window series whose queue gauge is
// the given pair of values.
func syntheticSeries(q0, q1 int) *probe.Series {
	s := probe.NewSeries(1, 10, 100, 4)
	s.Times = append(s.Times, 110, 120)
	c := &s.Cells[0]
	for k, v := range map[probe.Counter][2]int64{
		probe.PacketsOffered: {4, 10}, probe.PacketsLost: {0, 3}, probe.PacketsDelivered: {2, 6},
		probe.GSMArrivals: {1, 2}, probe.GSMBlocked: {0, 1}, probe.GPRSArrivals: {1, 1}, probe.GPRSBlocked: {0, 0},
		probe.HandoversIn: {0, 2}, probe.HandoversOut: {1, 1}, probe.HandoverArrivals: {0, 2}, probe.HandoverFailures: {0, 0},
	} {
		c.Counts[k] = append(c.Counts[k], v[0], v[1])
	}
	c.DelaySumSec = append(c.DelaySumSec, 0.5, 1.25)
	c.QueueLen = append(c.QueueLen, q0, q1)
	c.VoiceCalls = append(c.VoiceCalls, 5, 4)
	c.Sessions = append(c.Sessions, 1, 2)
	for g, v := range [probe.NumGauges][2]float64{
		probe.CarriedData: {0.5, 0.625}, probe.BufferOccupancy: {2.5, 2.25},
		probe.CarriedVoice: {5.5, 5.125}, probe.ActiveSessions: {1, 1.5},
	} {
		c.Means[g] = append(c.Means[g], v[0], v[1])
	}
	return s
}

// column returns the merged intervals of the named seriesColumns measure.
func column(t *testing.T, c CellSeriesCI, name string) []stats.Interval {
	t.Helper()
	for j, col := range seriesColumns {
		if col.name == name {
			return c.Measures[j]
		}
	}
	t.Fatalf("no series column %q", name)
	return nil
}

func TestMergeSeriesIntervals(t *testing.T) {
	// Three replications with queue gauges 2, 4, 6 in the first window: the
	// merged mean is 4 and the half-width is positive; identical second
	// windows collapse to a zero half-width.
	series := []*probe.Series{syntheticSeries(2, 3), syntheticSeries(4, 3), syntheticSeries(6, 3)}
	sum := MergeSeries(series, 0.95, VRNone)
	if sum == nil {
		t.Fatal("merge of aligned series returned nil")
	}
	if sum.Replications != 3 || sum.Level != 0.95 || len(sum.Times) != 2 || len(sum.Cells) != 1 {
		t.Fatalf("summary geometry wrong: %+v", sum)
	}
	q := column(t, sum.Cells[0], "queue_len")
	if q[0].Mean != 4 || q[0].HalfWidth <= 0 {
		t.Errorf("first window queue interval %+v, want mean 4 with positive half-width", q[0])
	}
	if q[1].Mean != 3 || q[1].HalfWidth != 0 {
		t.Errorf("identical samples should collapse: %+v", q[1])
	}
	// Window derivations ride along: PLP of window 2 is 3/6 in every
	// replication, throughput 4 packets over 10 s.
	if p := column(t, sum.Cells[0], "window_plp")[1]; p.Mean != 0.5 || p.HalfWidth != 0 {
		t.Errorf("window PLP interval %+v, want exact 0.5", p)
	}

	// Nil replications are skipped, not counted.
	withNil := []*probe.Series{nil, syntheticSeries(2, 3), syntheticSeries(6, 3), nil}
	if got := MergeSeries(withNil, 0.95, VRNone); got == nil || got.Replications != 2 {
		t.Fatalf("nil-tolerant merge wrong: %+v", got)
	}
	// All-nil and empty inputs yield no summary.
	if MergeSeries(nil, 0.95, VRNone) != nil || MergeSeries([]*probe.Series{nil}, 0.95, VRNone) != nil {
		t.Error("empty merges must return nil")
	}
	// Misaligned window counts refuse to merge rather than mix windows.
	short := probe.NewSeries(1, 10, 100, 4)
	short.Times = append(short.Times, 110)
	if MergeSeries([]*probe.Series{syntheticSeries(1, 2), short}, 0.95, VRNone) != nil {
		t.Error("misaligned series must not merge")
	}
}

func TestMergeSeriesVarianceReduction(t *testing.T) {
	// Antithetic pairs (1,7) and (3,5): pair means are 4 and 4, so the
	// interval collapses to an exact 4 with two effective samples.
	series := []*probe.Series{
		syntheticSeries(1, 1), syntheticSeries(7, 1),
		syntheticSeries(3, 1), syntheticSeries(5, 1),
	}
	sum := MergeSeries(series, 0.95, VRAntithetic)
	if sum == nil {
		t.Fatal("antithetic merge returned nil")
	}
	if q := column(t, sum.Cells[0], "queue_len")[0]; q.Mean != 4 || q.HalfWidth != 0 {
		t.Errorf("antithetic pair means should collapse to 4 exactly: %+v", q)
	}
	// The control-variate scheme is whole-run only: series merges fall back
	// to the plain estimator, bit-identically.
	plain := MergeSeries(series, 0.95, VRNone)
	ctrl := MergeSeries(series, 0.95, VRControl)
	if !reflect.DeepEqual(plain, ctrl) {
		t.Error("VRControl series merge must equal the VRNone merge")
	}
}

func TestRunMergesSeriesAcrossReplications(t *testing.T) {
	if testing.Short() {
		t.Skip("replicated simulation runs skipped in -short mode")
	}
	cfg := testConfig()
	cfg.Probe = &probe.Spec{IntervalSec: 50}
	var baseline *SeriesSummary
	for _, workers := range []int{1, 4} {
		sum, err := Run(cfg, Options{Replications: 3, Workers: workers, BaseSeed: 42})
		if err != nil {
			t.Fatal(err)
		}
		if sum.Series == nil {
			t.Fatal("probe armed but Summary.Series is nil")
		}
		s := sum.Series
		if s.Replications != 3 || s.IntervalSec != 50 {
			t.Fatalf("series summary geometry wrong: reps %d interval %v", s.Replications, s.IntervalSec)
		}
		wantWindows := int(math.Ceil(cfg.MeasurementSec / 50))
		if len(s.Times) != wantWindows {
			t.Fatalf("%d windows merged, want %d", len(s.Times), wantWindows)
		}
		if last := s.Times[len(s.Times)-1]; last != cfg.WarmupSec+cfg.MeasurementSec {
			t.Fatalf("last window at %v, want measurement end %v", last, cfg.WarmupSec+cfg.MeasurementSec)
		}
		if len(s.Cells) != 7 {
			t.Fatalf("%d cell series, want 7", len(s.Cells))
		}
		if baseline == nil {
			baseline = s
		} else if !reflect.DeepEqual(baseline, s) {
			t.Error("merged series must be bit-identical across worker counts")
		}
	}
	// Without a probe the summary carries no series.
	plain, err := Run(testConfig(), Options{Replications: 2, BaseSeed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Series != nil {
		t.Error("unprobed run grew a series")
	}
}

func TestWriteSeriesExports(t *testing.T) {
	sum := MergeSeries([]*probe.Series{syntheticSeries(2, 3), syntheticSeries(6, 3)}, 0.95, VRNone)
	if sum == nil {
		t.Fatal("merge returned nil")
	}
	var csvBuf bytes.Buffer
	if err := WriteSeriesCSV(&csvBuf, sum); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	if len(lines) != 3 || lines[0] != seriesCSVHeader {
		t.Fatalf("CSV shape wrong: %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[1], "110,0,4,") {
		t.Errorf("first row should carry the merged queue mean 4: %q", lines[1])
	}

	var jsonBuf bytes.Buffer
	if err := WriteSeriesJSONL(&jsonBuf, sum); err != nil {
		t.Fatal(err)
	}
	var rec struct {
		TimeSec      float64 `json:"time_sec"`
		Replications int     `json:"replications"`
		Level        float64 `json:"level"`
		Cells        []struct {
			QueueLen float64 `json:"queue_len_mean"`
		} `json:"cells"`
	}
	if err := json.Unmarshal([]byte(strings.SplitN(jsonBuf.String(), "\n", 2)[0]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.TimeSec != 110 || rec.Replications != 2 || rec.Level != 0.95 || len(rec.Cells) != 1 {
		t.Fatalf("JSONL record wrong: %+v", rec)
	}
	if rec.Cells[0].QueueLen != 4 {
		t.Errorf("JSONL queue mean %v, want 4", rec.Cells[0].QueueLen)
	}
}

// TestWriteSeriesJSONLPinned pins the exact bytes of one merged JSON line,
// so a renamed, reordered, or reformatted field fails here rather than in a
// downstream consumer.
func TestWriteSeriesJSONLPinned(t *testing.T) {
	const line = `{"time_sec":110,"replications":2,"level":0.95,"cells":[{"cell":0,` +
		`"queue_len_mean":4,"queue_len_hw":25.41240947234934,"voice_calls_mean":5,"voice_calls_hw":0,` +
		`"sessions_mean":1,"sessions_hw":0,"carried_data_mean":0.5,"carried_data_hw":0,` +
		`"window_plp_mean":0,"window_plp_hw":0,"window_throughput_mean":768,"window_throughput_hw":0}]}`
	sum := MergeSeries([]*probe.Series{syntheticSeries(2, 3), syntheticSeries(6, 3)}, 0.95, VRNone)
	var buf bytes.Buffer
	if err := WriteSeriesJSONL(&buf, sum); err != nil {
		t.Fatal(err)
	}
	if got := strings.SplitN(buf.String(), "\n", 2)[0]; got != line {
		t.Errorf("merged JSONL line drifted:\n got %s\nwant %s", got, line)
	}
}
