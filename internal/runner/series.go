package runner

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"repro/internal/probe"
	"repro/internal/stats"
)

// SeriesSummary is the cross-replication merge of per-replication sim-time
// series: for every probe window and cell, Student-t confidence intervals
// over the replication samples of the windowed measures. Produced by Run when
// the simulator configuration arms a probe (Config.Probe), or directly by
// MergeSeries.
type SeriesSummary struct {
	// IntervalSec and StartSec echo the probe geometry of the underlying
	// series (see probe.Series).
	IntervalSec, StartSec float64
	// Level is the confidence level of the intervals.
	Level float64
	// Replications is the number of per-replication series merged.
	Replications int
	// Times holds the window-end sample times in simulated seconds; probe
	// boundaries are deterministic, so every replication shares them.
	Times []float64
	// Cells holds one interval series per cell, indexed by cell id.
	Cells []CellSeriesCI
}

// CellSeriesCI is the per-cell slice of a SeriesSummary: every field is
// indexed like SeriesSummary.Times.
type CellSeriesCI struct {
	// Cell is the cell id.
	Cell int
	// QueueLen, VoiceCalls and Sessions are intervals over the instantaneous
	// occupancy gauges at each window end.
	QueueLen, VoiceCalls, Sessions []stats.Interval
	// CarriedData is the interval over the cumulative time-weighted mean PDCH
	// usage at each window end.
	CarriedData []stats.Interval
	// WindowPLP and WindowThroughputBits are intervals over the per-window
	// packet loss fraction and delivered bit rate.
	WindowPLP, WindowThroughputBits []stats.Interval
}

// seriesSample extracts one windowed observable of one cell at window k from
// a recorded series.
type seriesSample func(s *probe.Series, c *probe.CellSeries, k int) float64

// seriesDefs enumerates the merged series measures once, pairing each
// extractor with the interval slice it feeds.
var seriesDefs = []struct {
	get seriesSample
	set func(*CellSeriesCI) *[]stats.Interval
}{
	{func(_ *probe.Series, c *probe.CellSeries, k int) float64 { return float64(c.QueueLen[k]) },
		func(ci *CellSeriesCI) *[]stats.Interval { return &ci.QueueLen }},
	{func(_ *probe.Series, c *probe.CellSeries, k int) float64 { return float64(c.VoiceCalls[k]) },
		func(ci *CellSeriesCI) *[]stats.Interval { return &ci.VoiceCalls }},
	{func(_ *probe.Series, c *probe.CellSeries, k int) float64 { return float64(c.Sessions[k]) },
		func(ci *CellSeriesCI) *[]stats.Interval { return &ci.Sessions }},
	{func(_ *probe.Series, c *probe.CellSeries, k int) float64 { return c.Means[probe.CarriedData][k] },
		func(ci *CellSeriesCI) *[]stats.Interval { return &ci.CarriedData }},
	{windowPLP, func(ci *CellSeriesCI) *[]stats.Interval { return &ci.WindowPLP }},
	{windowThroughput, func(ci *CellSeriesCI) *[]stats.Interval { return &ci.WindowThroughputBits }},
}

// windowPLP is the per-window packet loss fraction of cell c at window k.
func windowPLP(s *probe.Series, c *probe.CellSeries, k int) float64 {
	_, _, _, plp, _ := probe.WindowRates(s, c, k)
	return plp
}

// windowThroughput is the per-window delivered bit rate of cell c at window
// k.
func windowThroughput(s *probe.Series, c *probe.CellSeries, k int) float64 {
	_, _, _, _, throughput := probe.WindowRates(s, c, k)
	return throughput
}

// MergeSeries folds per-replication series into per-window confidence
// intervals at the given level. Replication series share their window
// boundaries (probe boundaries are deterministic), so samples align by index.
// Under VRAntithetic the samples are antithetic pair means, mirroring the
// scalar merge; VRControl falls back to plain samples — the control-variate
// regression is defined against whole-run measures, not windowed ones. Nil
// entries (replications without a series) and empty input yield nil.
func MergeSeries(series []*probe.Series, level float64, vr VarianceReduction) *SeriesSummary {
	var kept []*probe.Series
	for _, s := range series {
		if s != nil {
			kept = append(kept, s)
		}
	}
	if len(kept) == 0 {
		return nil
	}
	first := kept[0]
	for _, s := range kept[1:] {
		if len(s.Times) != len(first.Times) || len(s.Cells) != len(first.Cells) {
			return nil
		}
	}
	if level <= 0 || level >= 1 {
		level = 0.95
	}
	if vr == VRControl {
		vr = VRNone
	}
	out := &SeriesSummary{
		IntervalSec:  first.IntervalSec,
		StartSec:     first.StartSec,
		Level:        level,
		Replications: len(kept),
		Times:        first.Times,
		Cells:        make([]CellSeriesCI, len(first.Cells)),
	}
	windows := len(first.Times)
	raw := make([]float64, len(kept))
	for cell := range out.Cells {
		ci := &out.Cells[cell]
		ci.Cell = first.Cells[cell].Cell
		for _, def := range seriesDefs {
			ivs := make([]stats.Interval, windows)
			for k := 0; k < windows; k++ {
				for i, s := range kept {
					raw[i] = def.get(s, &s.Cells[cell], k)
				}
				ivs[k] = SampleInterval(effectiveSamples(raw, vr, controlInfo{}), level, vr)
			}
			*def.set(ci) = ivs
		}
	}
	return out
}

// seriesCSVHeader is the column layout of WriteSeriesCSV: one row per
// (window, cell), each merged measure as a (mean, half-width) pair.
const seriesCSVHeader = "time_sec,cell," +
	"queue_len_mean,queue_len_hw,voice_calls_mean,voice_calls_hw," +
	"sessions_mean,sessions_hw,carried_data_mean,carried_data_hw," +
	"window_plp_mean,window_plp_hw,window_throughput_mean,window_throughput_hw"

func fmtSeriesFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WriteSeriesCSV renders a merged series as CSV: one row per (window, cell),
// windows outermost, every measure as mean plus confidence half-width.
func WriteSeriesCSV(w io.Writer, s *SeriesSummary) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, seriesCSVHeader)
	for k := range s.Times {
		for i := range s.Cells {
			c := &s.Cells[i]
			fmt.Fprintf(bw, "%s,%d,%s,%s,%s,%s,%s,%s,%s,%s,%s,%s,%s,%s\n",
				fmtSeriesFloat(s.Times[k]), c.Cell,
				fmtSeriesFloat(c.QueueLen[k].Mean), fmtSeriesFloat(c.QueueLen[k].HalfWidth),
				fmtSeriesFloat(c.VoiceCalls[k].Mean), fmtSeriesFloat(c.VoiceCalls[k].HalfWidth),
				fmtSeriesFloat(c.Sessions[k].Mean), fmtSeriesFloat(c.Sessions[k].HalfWidth),
				fmtSeriesFloat(c.CarriedData[k].Mean), fmtSeriesFloat(c.CarriedData[k].HalfWidth),
				fmtSeriesFloat(c.WindowPLP[k].Mean), fmtSeriesFloat(c.WindowPLP[k].HalfWidth),
				fmtSeriesFloat(c.WindowThroughputBits[k].Mean), fmtSeriesFloat(c.WindowThroughputBits[k].HalfWidth))
		}
	}
	return bw.Flush()
}

// seriesJSONCell is the per-cell payload of one WriteSeriesJSONL record.
type seriesJSONCell struct {
	Cell         int     `json:"cell"`
	QueueLen     float64 `json:"queue_len_mean"`
	QueueLenHW   float64 `json:"queue_len_hw"`
	VoiceCalls   float64 `json:"voice_calls_mean"`
	VoiceCallsHW float64 `json:"voice_calls_hw"`
	Sessions     float64 `json:"sessions_mean"`
	SessionsHW   float64 `json:"sessions_hw"`
	Carried      float64 `json:"carried_data_mean"`
	CarriedHW    float64 `json:"carried_data_hw"`
	PLP          float64 `json:"window_plp_mean"`
	PLPHW        float64 `json:"window_plp_hw"`
	Throughput   float64 `json:"window_throughput_mean"`
	ThroughputHW float64 `json:"window_throughput_hw"`
}

// seriesJSONWindow is one WriteSeriesJSONL record.
type seriesJSONWindow struct {
	TimeSec      float64          `json:"time_sec"`
	Replications int              `json:"replications"`
	Level        float64          `json:"level"`
	Cells        []seriesJSONCell `json:"cells"`
}

// WriteSeriesJSONL renders a merged series as JSON Lines: one object per
// window carrying every cell's merged measures.
func WriteSeriesJSONL(w io.Writer, s *SeriesSummary) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	cells := make([]seriesJSONCell, len(s.Cells))
	for k := range s.Times {
		for i := range s.Cells {
			c := &s.Cells[i]
			cells[i] = seriesJSONCell{
				Cell:         c.Cell,
				QueueLen:     c.QueueLen[k].Mean,
				QueueLenHW:   c.QueueLen[k].HalfWidth,
				VoiceCalls:   c.VoiceCalls[k].Mean,
				VoiceCallsHW: c.VoiceCalls[k].HalfWidth,
				Sessions:     c.Sessions[k].Mean,
				SessionsHW:   c.Sessions[k].HalfWidth,
				Carried:      c.CarriedData[k].Mean,
				CarriedHW:    c.CarriedData[k].HalfWidth,
				PLP:          c.WindowPLP[k].Mean,
				PLPHW:        c.WindowPLP[k].HalfWidth,
				Throughput:   c.WindowThroughputBits[k].Mean,
				ThroughputHW: c.WindowThroughputBits[k].HalfWidth,
			}
		}
		if err := enc.Encode(seriesJSONWindow{
			TimeSec: s.Times[k], Replications: s.Replications, Level: s.Level, Cells: cells,
		}); err != nil {
			return err
		}
	}
	return bw.Flush()
}
