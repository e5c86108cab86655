package runner

import (
	"bufio"
	"encoding/json"
	"errors"
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

// CellSeriesCI is the per-cell slice of a SeriesSummary.
type CellSeriesCI struct {
	// Cell is the cell id.
	Cell int
	// Measures holds one interval series per seriesColumns entry, in table
	// order; each is indexed like SeriesSummary.Times.
	Measures [][]stats.Interval
}

// seriesColumns declares every merged series measure once: its column stem
// in WriteSeriesCSV and WriteSeriesJSONL (suffixed _mean and _hw) and its
// per-replication sample of one cell at window k. The occupancy gauges are
// instantaneous values at the window end; carried data is the cumulative
// time-weighted mean PDCH usage; the window PLP and throughput are the
// per-window loss fraction and delivered bit rate.
var seriesColumns = []struct {
	name   string
	sample func(s *probe.Series, c *probe.CellSeries, k int) float64
}{
	{"queue_len", func(_ *probe.Series, c *probe.CellSeries, k int) float64 { return float64(c.QueueLen[k]) }},
	{"voice_calls", func(_ *probe.Series, c *probe.CellSeries, k int) float64 { return float64(c.VoiceCalls[k]) }},
	{"sessions", func(_ *probe.Series, c *probe.CellSeries, k int) float64 { return float64(c.Sessions[k]) }},
	{"carried_data", func(_ *probe.Series, c *probe.CellSeries, k int) float64 { return c.Means[probe.CarriedData][k] }},
	{"window_plp", windowPLP},
	{"window_throughput", windowThroughput},
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
		ci.Measures = make([][]stats.Interval, len(seriesColumns))
		for j, col := range seriesColumns {
			ivs := make([]stats.Interval, windows)
			for k := 0; k < windows; k++ {
				for i, s := range kept {
					raw[i] = col.sample(s, &s.Cells[cell], k)
				}
				ivs[k] = SampleInterval(effectiveSamples(raw, vr, controlInfo{}), level, vr)
			}
			ci.Measures[j] = ivs
		}
	}
	return out
}

// seriesCSVHeader is the column layout of WriteSeriesCSV: one row per
// (window, cell), each merged measure as a (mean, half-width) pair.
var seriesCSVHeader = func() string {
	h := "time_sec,cell"
	for _, col := range seriesColumns {
		h += "," + col.name + "_mean," + col.name + "_hw"
	}
	return h
}()

func fmtSeriesFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WriteSeriesCSV renders a merged series as CSV: one row per (window, cell),
// windows outermost, every measure as mean plus confidence half-width.
func WriteSeriesCSV(w io.Writer, s *SeriesSummary) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, seriesCSVHeader)
	for k := range s.Times {
		for _, c := range s.Cells {
			fmt.Fprintf(bw, "%s,%d", fmtSeriesFloat(s.Times[k]), c.Cell)
			for _, ivs := range c.Measures {
				fmt.Fprintf(bw, ",%s,%s", fmtSeriesFloat(ivs[k].Mean), fmtSeriesFloat(ivs[k].HalfWidth))
			}
			fmt.Fprintln(bw)
		}
	}
	return bw.Flush()
}

// seriesJSONCell is one cell's merged measures at window k, encoded as one
// object: the cell id, then every seriesColumns measure as a (mean,
// half-width) pair.
type seriesJSONCell struct {
	c *CellSeriesCI
	k int
}

// MarshalJSON encodes the cell's fields in seriesColumns order.
func (jc seriesJSONCell) MarshalJSON() ([]byte, error) {
	b := strconv.AppendInt([]byte(`{"cell":`), int64(jc.c.Cell), 10)
	for j, col := range seriesColumns {
		iv := jc.c.Measures[j][jc.k]
		mean, err1 := json.Marshal(iv.Mean)
		hw, err2 := json.Marshal(iv.HalfWidth)
		if err := errors.Join(err1, err2); err != nil {
			return nil, err
		}
		b = fmt.Appendf(b, `,"%s_mean":%s,"%s_hw":%s`, col.name, mean, col.name, hw)
	}
	return append(b, '}'), nil
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
			cells[i] = seriesJSONCell{&s.Cells[i], k}
		}
		if err := enc.Encode(seriesJSONWindow{
			TimeSec: s.Times[k], Replications: s.Replications, Level: s.Level, Cells: cells,
		}); err != nil {
			return err
		}
	}
	return bw.Flush()
}
