// Package experiments regenerates every table and figure of the paper's
// evaluation (§VII). Each experiment is a named runner producing a Table —
// the same rows/series the paper reports — backed by the real system
// implementations (dictionaries, CDN, RA data path) and the synthetic
// datasets of internal/workload.
//
// Runners are registered in All; the ritm-bench command and the root
// bench_test.go drive them by identifier:
//
//	fig4        revocation time series with the Heartbleed peak
//	fig5        CDF of dissemination download times (TTL=0)
//	fig6        monthly CA bills for four ∆ values
//	fig7        per-∆ communication overhead, Heartbleed week
//	tab1        dissemination message sequence
//	tab2        average cost vs ∆ × clients-per-RA
//	tab3        per-operation processing time
//	tab4        scheme comparison
//	storage     dictionary storage overhead (§VII-D)
//	dictops     dictionary insert/update batch times (§VII-D)
//	throughput  derived RA/client throughput (§VII-D)
//	latency     TLS handshake overhead through an RA (§VII-D)
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Table is one experiment's rendered result.
type Table struct {
	// ID is the experiment identifier (e.g. "fig5").
	ID string
	// Title describes the paper artifact reproduced.
	Title string
	// Columns are the header cells.
	Columns []string
	// Rows are the data cells, one slice per row.
	Rows [][]string
	// Notes carry caveats (substitutions, measurement conditions).
	Notes []string
}

// AddRow appends one row, formatting every cell with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = formatFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

func formatFloat(v float64) string {
	switch {
	case v != 0 && (v < 0.01 || v >= 1e15):
		return fmt.Sprintf("%.3e", v)
	case v == float64(int64(v)):
		return fmt.Sprintf("%d", int64(v))
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, wd := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", wd))
	}
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// CSV writes the table as comma-separated values (quotes cells containing
// commas).
func (t *Table) CSV(w io.Writer) error {
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteByte(',')
			}
			if strings.ContainsAny(cell, ",\"\n") {
				cell = `"` + strings.ReplaceAll(cell, `"`, `""`) + `"`
			}
			sb.WriteString(cell)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// Runner produces one experiment's table. Implementations honour quick:
// a reduced-parameter run for tests and smoke checks.
type Runner func(quick bool) (*Table, error)

// All returns the experiment registry, keyed by identifier.
func All() map[string]Runner {
	return map[string]Runner{
		"fig4":       Fig4,
		"fig5":       Fig5,
		"fig6":       Fig6,
		"fig7":       Fig7,
		"tab1":       Tab1,
		"tab2":       Tab2,
		"tab3":       Tab3,
		"tab4":       Tab4,
		"storage":    Storage,
		"dictops":    DictOps,
		"throughput": Throughput,
		"latency":    Latency,
	}
}

// IDs lists the registered experiment identifiers, sorted.
func IDs() []string {
	all := All()
	out := make([]string, 0, len(all))
	for id := range all {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by identifier.
func Run(id string, quick bool) (*Table, error) {
	r, ok := All()[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	return r(quick)
}

// timing summarizes repeated measurements, Tab III style.
type timing struct {
	Max, Min, Avg time.Duration
}

// measure runs fn iters times and reports max/min/avg wall time per call.
// batch > 1 amortizes the clock over that many calls per sample, for
// operations near the timer's resolution.
func measure(iters, batch int, fn func()) timing {
	return measureInterleaved(iters, 1, []probe{{batch, fn}})[0]
}

// probe is one operation for measureInterleaved: fn is timed batch calls
// at a time, amortizing the clock for operations near its resolution.
type probe struct {
	batch int
	fn    func()
}

// measureInterleaved reports max/min/avg wall time per call of each
// probe over iters samples. The probes are sampled round-robin — sample i
// of every probe is taken before sample i+1 of any — so a slow phase of
// the machine (another process, a GC cycle) lands on every probe alike
// instead of skewing one against another. Each sample is the fastest of k
// consecutive timed batches, so a preemption or pause inflates one batch,
// not the sample.
func measureInterleaved(iters, k int, probes []probe) []timing {
	out := make([]timing, len(probes))
	sums := make([]time.Duration, len(probes))
	for i := range out {
		out[i].Min = time.Duration(1<<63 - 1)
	}
	for i := 0; i < iters; i++ {
		for p, pr := range probes {
			batch := max(pr.batch, 1)
			d := time.Duration(1<<63 - 1)
			for r := 0; r < max(k, 1); r++ {
				start := time.Now()
				for j := 0; j < batch; j++ {
					pr.fn()
				}
				d = min(d, time.Since(start)/time.Duration(batch))
			}
			sums[p] += d
			out[p].Max = max(out[p].Max, d)
			out[p].Min = min(out[p].Min, d)
		}
	}
	for p := range out {
		out[p].Avg = sums[p] / time.Duration(max(iters, 1))
	}
	return out
}

// micros renders a duration in microseconds, as Tab III. Three decimals
// keep nanosecond-scale operations (Go's DPI check is ~2 ns, vs the
// paper's 2.93 µs in Python) from rounding to zero.
func micros(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d.Nanoseconds())/1e3)
}

// kb renders a byte count in KB with one decimal.
func kb(bytes float64) string {
	return fmt.Sprintf("%.1f", bytes/1024)
}

// usd renders dollars in thousands, as Fig 6 / Tab II.
func usd(v float64) string {
	return fmt.Sprintf("%.3f", v/1000)
}
