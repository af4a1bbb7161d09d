package experiments

import (
	"context"
	"fmt"
	"io"
)

// defaultAblationSet is the data set used by single-set experiments:
// large enough that the trees outgrow the scaled buffer pool.
const defaultAblationSet = "DISK1"

// IDs lists every experiment the registry can run, in DESIGN.md order.
var IDs = []string{
	"table1", "table2", "table3", "table4", "fig2", "fig3", "sel",
	"oneindex", "bfrj",
	"abl-sweep", "abl-pool", "abl-pack", "abl-tiles", "abl-leafstream", "abl-layout",
	"wallclock",
}

// Run executes one experiment by id and prints its table to w.
func Run(ctx context.Context, id string, cfg Config, w io.Writer) error {
	t, err := RunTable(ctx, id, cfg)
	if err != nil {
		return err
	}
	t.Fprint(w)
	return nil
}

// RunTable builds the table for one experiment id.
func RunTable(ctx context.Context, id string, cfg Config) (*Table, error) {
	switch id {
	case "table1":
		return Table1(), nil
	case "table2":
		return Table2(ctx, cfg)
	case "table3":
		return Table3(ctx, cfg)
	case "table4":
		return Table4(ctx, cfg)
	case "fig2":
		return Fig2(ctx, cfg)
	case "fig3":
		return Fig3(ctx, cfg)
	case "sel":
		return Selective(ctx, cfg, selSet(cfg))
	case "oneindex":
		return OneIndex(ctx, cfg, selSet(cfg))
	case "bfrj":
		return BFRJCompare(ctx, cfg, selSet(cfg))
	case "abl-sweep":
		return AblationSweep(ctx, cfg)
	case "abl-pool":
		return AblationSTBufferPool(ctx, cfg, selSet(cfg))
	case "abl-pack":
		return AblationPacking(ctx, cfg, selSet(cfg))
	case "abl-tiles":
		return AblationPBSMTiles(ctx, cfg, selSet(cfg))
	case "abl-leafstream":
		return AblationPQLeafStreaming(ctx, cfg, selSet(cfg))
	case "abl-layout":
		return AblationLayout(ctx, cfg, selSet(cfg))
	case "wallclock":
		return Wallclock(ctx, cfg, 0) // 0: scale to GOMAXPROCS
	default:
		return nil, fmt.Errorf("experiments: unknown id %q (known: %v)", id, IDs)
	}
}

// selSet picks the single-set experiments' data set: the largest
// configured set, so the buffer pool is genuinely undersized.
func selSet(cfg Config) string {
	if len(cfg.Sets) > 0 {
		return cfg.Sets[len(cfg.Sets)-1]
	}
	return defaultAblationSet
}

// RunAll executes every experiment in order.
func RunAll(ctx context.Context, cfg Config, w io.Writer) error {
	for _, id := range IDs {
		if err := Run(ctx, id, cfg, w); err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
	}
	return nil
}
