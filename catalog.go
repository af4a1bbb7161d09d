package unijoin

import (
	"fmt"
	"sort"
	"sync"
)

// Catalog is a named set of relations sharing one Workspace, the
// resident state of a long-lived query process: relations are loaded
// (and optionally indexed) once, then joined or window-queried many
// times without rebuilding anything. A Catalog is safe for concurrent
// use — lookups and queries proceed under a read lock while loads and
// drops are single-writer — so any number of requests may join
// cataloged relations at once.
//
// Because every relation lives on the catalog's one simulated disk,
// any two of them can be joined directly with Workspace.Query. A
// catalog's workspace is serving state, so the default join and its
// non-indexed form (AlgPQ, AlgSSSJ) run where AlgParallel does: on the
// relations' resident prepared runs — sorted at load, carried across
// appends — with one worker, no page reads and no store mutex. Window
// queries read the same runs, cut to the window's y-slab. The
// algorithms that do go to the disk (ST, BFRJ, PBSM, auto and multiway
// joins) share its I/O counters, which therefore accumulate across
// concurrent queries;
// per-query counter deltas are only exact when queries run one at a
// time (see iosim.Store).
type Catalog struct {
	ws *Workspace

	mu   sync.RWMutex
	rels map[string]*Relation
	// loading reserves names whose Load is in flight, so the write
	// lock never has to be held across a record write + index build.
	loading map[string]struct{}
}

// NewCatalog creates an empty catalog on a fresh workspace.
func NewCatalog() *Catalog {
	return NewCatalogOn(NewWorkspace())
}

// NewCatalogOn creates an empty catalog on an existing workspace
// (useful when the universe has been fixed with SetUniverse first) and
// makes that workspace serving state: from here on its PQ and SSSJ
// joins run on the relations' resident prepared runs, not on the
// simulated disk. Call it before the workspace runs queries.
func NewCatalogOn(ws *Workspace) *Catalog {
	ws.resident = true
	return &Catalog{
		ws:      ws,
		rels:    make(map[string]*Relation),
		loading: make(map[string]struct{}),
	}
}

// Workspace returns the workspace all cataloged relations live on.
// Use it to build queries over relations obtained with Get.
func (c *Catalog) Workspace() *Workspace { return c.ws }

// Load writes recs to the catalog's workspace as a new relation named
// name (Workspace.AddRelation: it refuses the same records), building
// its R-tree first when index is set, and publishes it
// atomically: concurrent readers see either no relation or the fully
// loaded (and indexed) one, never a partial state. The name must be
// non-empty and not already present (or mid-load). The write lock is
// held only to reserve the name and to publish the result — not
// across the record write and index build — so a large load never
// stalls concurrent lookups and queries.
func (c *Catalog) Load(name string, recs []Record, index bool) (*Relation, error) {
	if name == "" {
		return nil, fmt.Errorf("unijoin: catalog relation needs a name")
	}
	c.mu.Lock()
	_, exists := c.rels[name]
	if _, inFlight := c.loading[name]; exists || inFlight {
		c.mu.Unlock()
		return nil, fmt.Errorf("unijoin: relation %q already in catalog", name)
	}
	c.loading[name] = struct{}{}
	c.mu.Unlock()

	r, err := c.ws.AddNamedRelation(name, recs)
	if err == nil && index {
		if ierr := r.BuildIndex(); ierr != nil {
			// Unpublished relation: hand its record pages back to the
			// shared disk so repeated failed loads don't grow it.
			r.log.ReleaseInitial()
			err = ierr
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.loading, name)
	if err != nil {
		return nil, err
	}
	c.rels[name] = r
	return r, nil
}

// Get returns the named relation, or false if it is not cataloged.
func (c *Catalog) Get(name string) (*Relation, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	r, ok := c.rels[name]
	return r, ok
}

// Names returns the cataloged relation names in sorted order.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.rels))
	for name := range c.rels {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of cataloged relations.
func (c *Catalog) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.rels)
}

// Drop removes the named relation from the catalog, reporting whether
// it was present. The relation's pages stay allocated on the shared
// disk (outstanding queries may still be scanning them); a dropped
// name can be reloaded immediately.
func (c *Catalog) Drop(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.rels[name]
	delete(c.rels, name)
	return ok
}
