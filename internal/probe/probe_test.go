package probe

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"

	"repro/internal/traffic"
)

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name        string
		interval    float64
		measurement float64
		wantErr     bool
	}{
		{"valid", 10, 20000, false},
		{"valid without horizon", 10, 0, false},
		{"zero interval", 0, 20000, true},
		{"negative interval", -1, 20000, true},
		{"NaN interval", math.NaN(), 20000, true},
		{"infinite interval", math.Inf(1), 20000, true},
		{"too many windows", 1e-6, 20000, true},
		{"largest allowed window count", 20000.0 / maxWindows, 20000, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := Spec{IntervalSec: c.interval}.Validate(c.measurement)
			if (err != nil) != c.wantErr {
				t.Fatalf("Validate(%v over %v) = %v, wantErr %v", c.interval, c.measurement, err, c.wantErr)
			}
			if err != nil && !strings.Contains(err.Error(), ErrInvalidSpec.Error()) {
				t.Errorf("error %v does not wrap ErrInvalidSpec", err)
			}
		})
	}
}

func TestNewSeriesPreallocation(t *testing.T) {
	spec := Spec{IntervalSec: 37.5}
	capacity := spec.Windows(600)
	if capacity < 17 {
		t.Fatalf("600 s at 37.5 s needs at least 16+1 windows of capacity, got %d", capacity)
	}
	s := NewSeries(3, spec.IntervalSec, 200, capacity)
	if s.Windows() != 0 || len(s.Cells) != 3 {
		t.Fatalf("fresh series: %d windows, %d cells", s.Windows(), len(s.Cells))
	}
	for i, c := range s.Cells {
		if c.Cell != i {
			t.Errorf("cell %d mislabeled as %d", i, c.Cell)
		}
		if cap(c.Means[ActiveSessions]) != capacity || cap(c.QueueLen) != capacity {
			t.Errorf("cell %d: buffers not preallocated to %d", i, capacity)
		}
		for k := range NumCounters {
			want := 0
			if k.Sampled() {
				want = capacity
			}
			if cap(c.Counts[k]) != want {
				t.Errorf("cell %d: counter %d has capacity %d, want %d", i, k, cap(c.Counts[k]), want)
			}
		}
	}
}

// TestCounterTable checks that every counter is documented and that no two
// sampled counters share a column.
func TestCounterTable(t *testing.T) {
	seen := map[string]Counter{}
	for k, def := range Counters {
		if def.Doc == "" {
			t.Errorf("counter %d has no doc", k)
		}
		if def.Column == "" {
			continue
		}
		if prev, dup := seen[def.Column]; dup {
			t.Errorf("counters %d and %d share column %q", prev, k, def.Column)
		}
		seen[def.Column] = Counter(k)
	}
}

// TestGaugeTable checks that every gauge is documented and has a column of
// its own, distinct from every other series column.
func TestGaugeTable(t *testing.T) {
	seen := map[string]int{}
	for _, col := range cellColumns {
		seen[col.name]++
	}
	for g, def := range Gauges {
		if def.Doc == "" {
			t.Errorf("gauge %d has no doc", g)
		}
		if def.Column == "" || seen[def.Column] != 1 {
			t.Errorf("gauge %d: column %q is empty or not unique among the series columns", g, def.Column)
		}
	}
}

func TestRuntimeSnapshotDerivedRates(t *testing.T) {
	r := NewRuntime()
	r.EventsProcessed.Add(1000)
	r.PoolHits.Add(3)
	r.PoolMisses.Add(1)
	r.AdvanceNanos.Add(60)
	r.BarrierWaitNanos.Add(40)
	r.SetAdaptive(0.042, true)
	s := r.Snapshot()
	if s.EventsProcessed != 1000 || s.UptimeSec <= 0 || s.EventsPerSec <= 0 {
		t.Errorf("throughput snapshot wrong: %+v", s)
	}
	if s.PoolHitRate != 0.75 {
		t.Errorf("pool hit rate %v, want 0.75", s.PoolHitRate)
	}
	if s.BarrierWaitFrac != 0.4 {
		t.Errorf("barrier wait fraction %v, want 0.4", s.BarrierWaitFrac)
	}
	if s.AdaptiveRelHW != 0.042 || !s.AdaptiveConverged {
		t.Errorf("adaptive state wrong: %+v", s)
	}
	if _, err := json.Marshal(s); err != nil {
		t.Fatalf("snapshot must be JSON-encodable: %v", err)
	}

	// A fresh registry must not divide by zero anywhere.
	z := NewRuntime().Snapshot()
	if z.PoolHitRate != 0 || z.BarrierWaitFrac != 0 {
		t.Errorf("zero registry produced nonzero rates: %+v", z)
	}
}

// sampleSeries builds a two-window, one-cell series with hand-picked values.
func sampleSeries() *Series {
	s := NewSeries(1, 10, 100, 4)
	s.Times = append(s.Times, 110, 120)
	c := &s.Cells[0]
	for k, v := range map[Counter][2]int64{
		PacketsOffered: {4, 10}, PacketsLost: {0, 3}, PacketsDelivered: {2, 6},
		GSMArrivals: {1, 2}, GSMBlocked: {0, 1}, GPRSArrivals: {1, 1}, GPRSBlocked: {0, 0},
		HandoversIn: {0, 2}, HandoversOut: {1, 1}, HandoverArrivals: {0, 2}, HandoverFailures: {0, 0},
		GuardBlockedCalls: {0, 1}, HandoversQueued: {0, 2}, HandoverQueueServed: {0, 1},
		HandoverQueueExpired: {0, 1}, HandoverRetries: {0, 1}, HandoverTransitEnds: {0, 1},
	} {
		c.Counts[k] = append(c.Counts[k], v[0], v[1])
	}
	c.DelaySumSec = append(c.DelaySumSec, 0.5, 1.25)
	c.QueueLen = append(c.QueueLen, 3, 0)
	c.VoiceCalls = append(c.VoiceCalls, 5, 4)
	c.Sessions = append(c.Sessions, 1, 2)
	for g, v := range [NumGauges][2]float64{
		CarriedData: {0.5, 0.625}, BufferOccupancy: {2.5, 2.25}, CarriedVoice: {5.5, 5.125}, ActiveSessions: {1, 1.5},
	} {
		c.Means[g] = append(c.Means[g], v[0], v[1])
	}
	return s
}

func TestWriteCSVWindowDerivation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, sampleSeries()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want header + 2 rows", len(lines))
	}
	if lines[0] != CSVHeader {
		t.Errorf("header mismatch:\n%s", lines[0])
	}
	// Second window: deltas 6 offered, 3 lost, 4 delivered over 10 s.
	fields := strings.Split(lines[2], ",")
	header := strings.Split(CSVHeader, ",")
	got := map[string]string{}
	for i, name := range header {
		got[name] = fields[i]
	}
	wantTput := fmt.Sprint(4 * float64(traffic.PacketSizeBits) / 10)
	for name, want := range map[string]string{
		"time_sec":               "120",
		"cell":                   "0",
		"offered_cum":            "10",
		"window_offered":         "6",
		"window_lost":            "3",
		"window_delivered":       "4",
		"window_plp":             "0.5",
		"window_throughput_bits": wantTput,
		"carried_voice_cum":      "5.125",
		"ho_guard_blocked_cum":   "1",
		"ho_queued_cum":          "2",
		"ho_queue_served_cum":    "1",
		"ho_queue_expired_cum":   "1",
		"ho_retries_cum":         "1",
		"ho_transit_ends_cum":    "1",
	} {
		if got[name] != want {
			t.Errorf("column %s = %q, want %q", name, got[name], want)
		}
	}
}

func TestWriteJSONLWindowDerivation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, sampleSeries()); err != nil {
		t.Fatal(err)
	}
	type cell struct {
		Offered      int64   `json:"offered_cum"`
		GuardBlocked int64   `json:"ho_guard_blocked_cum"`
		Queued       int64   `json:"ho_queued_cum"`
		QueueServed  int64   `json:"ho_queue_served_cum"`
		QueueExpired int64   `json:"ho_queue_expired_cum"`
		Retries      int64   `json:"ho_retries_cum"`
		TransitEnds  int64   `json:"ho_transit_ends_cum"`
		WindowPLP    float64 `json:"window_plp"`
		Throughput   float64 `json:"window_throughput_bits"`
	}
	type window struct {
		TimeSec float64 `json:"time_sec"`
		Cells   []cell  `json:"cells"`
	}
	dec := json.NewDecoder(&buf)
	var records []window
	for {
		var w window
		if err := dec.Decode(&w); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		records = append(records, w)
	}
	if len(records) != 2 {
		t.Fatalf("got %d records, want 2", len(records))
	}
	last := records[1]
	if last.TimeSec != 120 || len(last.Cells) != 1 {
		t.Fatalf("last record wrong: %+v", last)
	}
	c := last.Cells[0]
	if c.Offered != 10 || c.WindowPLP != 0.5 {
		t.Errorf("cumulative/window fields wrong: %+v", c)
	}
	if c.GuardBlocked != 1 || c.Queued != 2 || c.QueueServed != 1 || c.QueueExpired != 1 || c.Retries != 1 || c.TransitEnds != 1 {
		t.Errorf("policy counter fields wrong: %+v", c)
	}
	if want := 4 * float64(traffic.PacketSizeBits) / 10; c.Throughput != want {
		t.Errorf("window throughput %v, want %v", c.Throughput, want)
	}
}

func TestSeriesFormatPinned(t *testing.T) {
	const (
		header = "time_sec,cell,offered_cum,lost_cum,delivered_cum,delay_sum_cum_sec," +
			"gsm_arrivals_cum,gsm_blocked_cum,gprs_arrivals_cum,gprs_blocked_cum," +
			"ho_in_cum,ho_out_cum,ho_arrivals_cum,ho_failures_cum," +
			"ho_guard_blocked_cum,ho_queued_cum,ho_queue_served_cum,ho_queue_expired_cum,ho_retries_cum,ho_transit_ends_cum," +
			"queue_len,voice_calls,sessions,carried_data_cum,mean_queue_cum,carried_voice_cum,avg_sessions_cum," +
			"window_offered,window_lost,window_delivered,window_plp,window_throughput_bits"
		row  = "120,0,10,3,6,1.25,2,1,1,0,2,1,2,0,1,2,1,1,1,1,0,4,2,0.625,2.25,5.125,1.5,6,3,4,0.5,1536"
		line = `{"time_sec":120,"cells":[{"cell":0,"offered_cum":10,"lost_cum":3,"delivered_cum":6,` +
			`"delay_sum_cum_sec":1.25,"gsm_arrivals_cum":2,"gsm_blocked_cum":1,"gprs_arrivals_cum":1,` +
			`"gprs_blocked_cum":0,"ho_in_cum":2,"ho_out_cum":1,"ho_arrivals_cum":2,"ho_failures_cum":0,` +
			`"ho_guard_blocked_cum":1,"ho_queued_cum":2,"ho_queue_served_cum":1,"ho_queue_expired_cum":1,` +
			`"ho_retries_cum":1,"ho_transit_ends_cum":1,"queue_len":0,"voice_calls":4,"sessions":2,` +
			`"carried_data_cum":0.625,"mean_queue_cum":2.25,"carried_voice_cum":5.125,"avg_sessions_cum":1.5,` +
			`"window_plp":0.5,"window_throughput_bits":1536}]}`
	)
	var csvBuf, jsonBuf bytes.Buffer
	if err := WriteCSV(&csvBuf, sampleSeries()); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&jsonBuf, sampleSeries()); err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(csvBuf.String(), "\n")
	if len(rows) != 4 || rows[0] != header || rows[2] != row || rows[3] != "" {
		t.Errorf("CSV export drifted:\n%s", csvBuf.String())
	}
	lines := strings.Split(jsonBuf.String(), "\n")
	if len(lines) != 3 || lines[1] != line || lines[2] != "" {
		t.Errorf("JSONL export drifted:\n%s", jsonBuf.String())
	}
}

func TestServeTelemetry(t *testing.T) {
	addr, err := ServeTelemetry("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/vars returned %d", resp.StatusCode)
	}
	var vars struct {
		GPRS *Snapshot `json:"gprs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	if vars.GPRS == nil {
		t.Fatal("expvar page is missing the gprs snapshot")
	}
	if vars.GPRS.UptimeSec <= 0 {
		t.Errorf("snapshot looks unpopulated: %+v", vars.GPRS)
	}
	// The pprof mux must be mounted on the same endpoint.
	pp, err := http.Get("http://" + addr + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	pp.Body.Close()
	if pp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline returned %d", pp.StatusCode)
	}
}
