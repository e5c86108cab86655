package probe

import (
	"bufio"
	"encoding/json"
	"io"
	"strconv"
	"strings"

	"repro/internal/traffic"
)

// column is one per-cell field of a series window that both exports carry:
// an integer (i) or a float (f) value.
type column struct {
	name string
	i    func(c *CellSeries, k int) int64
	f    func(c *CellSeries, k int) float64
}

// cellColumns lists the per-cell columns of both exports in order: the
// sampled counters, with the delay sum after the packet counters, then the
// instantaneous occupancies and the cumulative gauge means.
var cellColumns = func() []column {
	var cols []column
	for n := range NumCounters {
		if n.Sampled() {
			cols = append(cols, column{name: Counters[n].Column, i: func(c *CellSeries, k int) int64 { return c.Counts[n][k] }})
		}
		if n == PacketsDelivered {
			cols = append(cols, column{name: "delay_sum_cum_sec", f: func(c *CellSeries, k int) float64 { return c.DelaySumSec[k] }})
		}
	}
	cols = append(cols,
		column{name: "queue_len", i: func(c *CellSeries, k int) int64 { return int64(c.QueueLen[k]) }},
		column{name: "voice_calls", i: func(c *CellSeries, k int) int64 { return int64(c.VoiceCalls[k]) }},
		column{name: "sessions", i: func(c *CellSeries, k int) int64 { return int64(c.Sessions[k]) }},
	)
	for g := range NumGauges {
		cols = append(cols, column{name: Gauges[g].Column, f: func(c *CellSeries, k int) float64 { return c.Means[g][k] }})
	}
	return cols
}()

// appendValue appends the value of column col for cell c at window k,
// rendering a float with appendFloat.
func (col column) appendValue(b []byte, c *CellSeries, k int, appendFloat func([]byte, float64) []byte) []byte {
	if col.i != nil {
		return strconv.AppendInt(b, col.i(c, k), 10)
	}
	return appendFloat(b, col.f(c, k))
}

// CSVHeader is the column layout of WriteCSV: one row per (window, cell).
// Columns named *_cum are cumulative since the measurement start (counters
// telescope exactly back to the terminal PerCell totals; the mean gauges are
// cumulative time-weighted averages, so the last row reproduces the terminal
// aggregates). Columns named window_* are per-window: deltas of the
// cumulative counters, the packet loss fraction of the window, and the
// delivered bit rate over the window length.
var CSVHeader = func() string {
	names := []string{"time_sec", "cell"}
	for _, col := range cellColumns {
		names = append(names, col.name)
	}
	names = append(names, "window_offered", "window_lost", "window_delivered", "window_plp", "window_throughput_bits")
	return strings.Join(names, ",")
}()

// appendCSVFloat renders a float through its shortest representation that
// parses back to exactly the same bits, so CSV round-trips are lossless.
func appendCSVFloat(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// WindowRates derives the per-window packet counts, packet loss fraction and
// delivered bit rate of cell c at window k of s from the cumulative counters.
func WindowRates(s *Series, c *CellSeries, k int) (offered, lost, delivered int64, plp, throughput float64) {
	off, los, del := c.Counts[PacketsOffered], c.Counts[PacketsLost], c.Counts[PacketsDelivered]
	offered, lost, delivered = off[k], los[k], del[k]
	start := s.StartSec
	if k > 0 {
		offered -= off[k-1]
		lost -= los[k-1]
		delivered -= del[k-1]
		start = s.Times[k-1]
	}
	if offered > 0 {
		plp = float64(lost) / float64(offered)
	}
	if dt := s.Times[k] - start; dt > 0 {
		throughput = float64(delivered) * float64(traffic.PacketSizeBits) / dt
	}
	return offered, lost, delivered, plp, throughput
}

// WriteCSV renders the series as CSV (see CSVHeader), one row per
// (window, cell), windows outermost.
func WriteCSV(w io.Writer, s *Series) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(CSVHeader + "\n")
	var row []byte
	for k := range s.Times {
		for i := range s.Cells {
			c := &s.Cells[i]
			wOff, wLost, wDel, plp, tput := WindowRates(s, c, k)
			row = appendCSVFloat(row[:0], s.Times[k])
			row = strconv.AppendInt(append(row, ','), int64(c.Cell), 10)
			for _, col := range cellColumns {
				row = col.appendValue(append(row, ','), c, k, appendCSVFloat)
			}
			for _, v := range [...]int64{wOff, wLost, wDel} {
				row = strconv.AppendInt(append(row, ','), v, 10)
			}
			row = appendCSVFloat(append(row, ','), plp)
			row = appendCSVFloat(append(row, ','), tput)
			bw.Write(append(row, '\n'))
		}
	}
	return bw.Flush()
}

// WriteJSONL renders the series as JSON Lines: one object per window
// carrying every cell's sample, with the same cumulative/window semantics as
// the CSV columns:
//
//	{"time_sec":T,"cells":[{"cell":0,"offered_cum":N,...,"window_plp":P,"window_throughput_bits":B},...]}
//
// Floats are rendered exactly as encoding/json renders them.
func WriteJSONL(w io.Writer, s *Series) error {
	bw := bufio.NewWriter(w)
	var err error
	num := func(b []byte, v float64) []byte {
		enc, e := json.Marshal(v)
		if err == nil {
			err = e
		}
		return append(b, enc...)
	}
	var line []byte
	for k := range s.Times {
		line = num(append(line[:0], `{"time_sec":`...), s.Times[k])
		line = append(line, `,"cells":[`...)
		for i := range s.Cells {
			c := &s.Cells[i]
			if i > 0 {
				line = append(line, ',')
			}
			line = strconv.AppendInt(append(line, `{"cell":`...), int64(c.Cell), 10)
			for _, col := range cellColumns {
				line = col.appendValue(append(append(append(line, `,"`...), col.name...), `":`...), c, k, num)
			}
			_, _, _, plp, tput := WindowRates(s, c, k)
			line = num(append(line, `,"window_plp":`...), plp)
			line = append(num(append(line, `,"window_throughput_bits":`...), tput), '}')
		}
		if err != nil {
			return err
		}
		bw.Write(append(line, "]}\n"...))
	}
	return bw.Flush()
}
