// Package experiments regenerates every table and figure of the
// paper's evaluation (Section 6) on the synthetic TIGER-like data sets
// and the simulated machines. Each experiment returns a Table that the
// sjbench command prints and the repository benchmarks exercise; the
// EXPERIMENTS.md file records paper-vs-measured values produced by
// this package.
//
// Experiment identifiers follow DESIGN.md: table1, table2, table3,
// table4, fig2, fig3, sel, plus the ablations.
package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"unijoin/internal/core"
	"unijoin/internal/geom"
	"unijoin/internal/iosim"
	"unijoin/internal/rtree"
	"unijoin/internal/stream"
	"unijoin/internal/tiger"
)

// Config selects the data scale and which data sets to run.
type Config struct {
	Tiger tiger.Config
	// Sets is the list of data set names; empty means all six.
	Sets []string
	// Window, when set, restricts the wall-clock experiment's joins
	// to this rectangle (sjbench -window); the paper-reproduction
	// tables are defined over the full data sets and ignore it.
	Window *geom.Rect
}

// DefaultConfig runs all six data sets at 1/100 scale.
func DefaultConfig() Config {
	return Config{Tiger: tiger.DefaultConfig()}
}

// QuickConfig runs the three smallest data sets at 1/500 scale; it is
// what the unit tests and -short benchmarks use.
func QuickConfig() Config {
	return Config{
		Tiger: tiger.Config{Scale: 0.002, Seed: 1997, Clusters: 40},
		Sets:  []string{"NJ", "NY", "DISK1"},
	}
}

// specs resolves the configured data sets.
func (c Config) specs() ([]tiger.Spec, error) {
	if len(c.Sets) == 0 {
		return tiger.Specs, nil
	}
	var out []tiger.Spec
	for _, name := range c.Sets {
		s, err := tiger.SpecByName(name)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// Env is one data set prepared on its own simulated disk: record
// streams for both relations plus bulk-loaded R-trees, with the build
// cost recorded separately from join costs.
type Env struct {
	Spec      tiger.Spec
	Cfg       Config
	Store     *iosim.Store
	RoadsFile *iosim.File
	HydroFile *iosim.File
	RoadsTree *rtree.Tree
	HydroTree *rtree.Tree
	BuildIO   iosim.Counters
	BuildCPU  time.Duration
}

// Prepare generates one data set and builds its files and indexes.
func Prepare(cfg Config, spec tiger.Spec) (*Env, error) {
	store := iosim.NewStore(iosim.DefaultPageSize)
	roads, hydro := cfg.Tiger.Generate(spec)
	rf, err := stream.WriteAll(store, stream.Records, roads)
	if err != nil {
		return nil, err
	}
	hf, err := stream.WriteAll(store, stream.Records, hydro)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	before := store.Counters()
	opts := rtree.DefaultBuildOptions()
	opts.SortMemory = cfg.Tiger.MemoryBytes()
	rt, err := rtree.Build(store, rf, spec.Region, opts)
	if err != nil {
		return nil, err
	}
	ht, err := rtree.Build(store, hf, spec.Region, opts)
	if err != nil {
		return nil, err
	}
	return &Env{
		Spec: spec, Cfg: cfg, Store: store,
		RoadsFile: rf, HydroFile: hf, RoadsTree: rt, HydroTree: ht,
		BuildIO: store.Counters().Sub(before), BuildCPU: time.Since(start),
	}, nil
}

// Options returns join options with the scaled memory budgets; the
// store counters are reset so each join is measured from cold.
func (e *Env) Options() core.Options {
	e.Store.ResetCounters()
	return core.Options{
		Store:           e.Store,
		Universe:        e.Spec.Region,
		MemoryBytes:     e.Cfg.Tiger.MemoryBytes(),
		BufferPoolBytes: e.Cfg.Tiger.BufferPoolBytes(),
	}
}

// forEach prepares each configured data set and invokes fn.
func (c Config) forEach(fn func(*Env) error) error {
	specs, err := c.specs()
	if err != nil {
		return err
	}
	for _, s := range specs {
		env, err := Prepare(c, s)
		if err != nil {
			return fmt.Errorf("prepare %s: %w", s.Name, err)
		}
		if err := fn(env); err != nil {
			return fmt.Errorf("%s: %w", s.Name, err)
		}
	}
	return nil
}

// Table is a printable experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends one formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddNote appends a footnote line.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			pad := 0
			if i < len(widths) {
				pad = widths[i] - len(c)
			}
			if i == 0 {
				b.WriteString(c + strings.Repeat(" ", pad))
			} else {
				b.WriteString(strings.Repeat(" ", pad) + c)
			}
		}
		fmt.Fprintln(w, "  "+b.String())
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// String implements fmt.Stringer.
func (t *Table) String() string {
	var b strings.Builder
	t.Fprint(&b)
	return b.String()
}

// FprintJSONL renders the table as NDJSON, one self-describing object
// per row — the machine-readable form behind sjbench -json, meant to
// be appended to a benchmark trajectory and diffed across commits.
// Keys are the header labels lowercased with spaces and slashes
// folded to underscores; purely numeric cells become JSON numbers.
func (t *Table) FprintJSONL(w io.Writer) error {
	keys := make([]string, len(t.Header))
	for i, h := range t.Header {
		keys[i] = jsonKey(h)
	}
	enc := json.NewEncoder(w)
	for _, row := range t.Rows {
		obj := make(map[string]any, len(row)+1)
		obj["experiment"] = t.ID
		for i, cell := range row {
			if i >= len(keys) {
				break
			}
			obj[keys[i]] = jsonCell(cell)
		}
		if err := enc.Encode(obj); err != nil {
			return err
		}
	}
	return nil
}

// jsonKey folds a header label to a stable JSON field name.
func jsonKey(h string) string {
	k := strings.ToLower(h)
	for _, cut := range []string{" ", "/", "-"} {
		k = strings.ReplaceAll(k, cut, "_")
	}
	return strings.Trim(k, "_")
}

// jsonCell parses a formatted cell back to a number when it is one.
func jsonCell(c string) any {
	if n, err := strconv.ParseInt(c, 10, 64); err == nil {
		return n
	}
	if f, err := strconv.ParseFloat(c, 64); err == nil {
		return f
	}
	return c
}

// mb formats a byte count in MB with two decimals.
func mb(b int64) string { return fmt.Sprintf("%.2f", float64(b)/(1<<20)) }

// secs formats a duration in seconds with two decimals.
func secs(d time.Duration) string { return fmt.Sprintf("%.2f", d.Seconds()) }

// rerr formats a measured/paper ratio.
func ratio(measured, paper float64) string {
	if paper == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", measured/paper)
}
