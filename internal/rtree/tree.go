package rtree

import (
	"fmt"

	"unijoin/internal/geom"
	"unijoin/internal/iosim"
)

// ReadNode decodes the node on page p through the given PageReader
// into n, reusing n's entry slice.
func (t *Tree) ReadNode(pr PageReader, p iosim.PageID, n *Node) error {
	buf, err := pr.Get(p)
	if err != nil {
		return err
	}
	return decodeNodeInto(buf, n)
}

// Query reports every data record whose MBR intersects window,
// descending only into subtrees whose bounding rectangle intersects it.
func (t *Tree) Query(pr PageReader, window geom.Rect, emit func(geom.Record)) error {
	var stack []iosim.PageID
	if t.mbr.Valid() && !t.mbr.Intersects(window) {
		return nil
	}
	stack = append(stack, t.root)
	var n Node
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if err := t.ReadNode(pr, p, &n); err != nil {
			return err
		}
		for _, e := range n.Entries {
			if !e.Rect.Intersects(window) {
				continue
			}
			if n.Leaf() {
				emit(geom.Record{Rect: e.Rect, ID: e.Ref})
			} else {
				stack = append(stack, iosim.PageID(e.Ref))
			}
		}
	}
	return nil
}

// CountLeavesIntersecting returns how many leaf pages have a bounding
// rectangle intersecting window. The planner uses the true count in
// tests to validate the histogram estimate.
func (t *Tree) CountLeavesIntersecting(pr PageReader, window geom.Rect) (int, error) {
	count := 0
	var walk func(p iosim.PageID) error
	walk = func(p iosim.PageID) error {
		var n Node
		if err := t.ReadNode(pr, p, &n); err != nil {
			return err
		}
		if n.Leaf() {
			// Only reachable when the root itself is a leaf.
			if m := n.MBR(); m.Valid() && m.Intersects(window) {
				count++
			}
			return nil
		}
		for _, e := range n.Entries {
			if !e.Rect.Intersects(window) {
				continue
			}
			if n.Level == 1 {
				count++ // children are leaves; no need to read them
				continue
			}
			if err := walk(iosim.PageID(e.Ref)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root); err != nil {
		return 0, err
	}
	return count, nil
}

// LevelCounts returns the number of nodes at each level, root last.
func (t *Tree) LevelCounts(pr PageReader) ([]int, error) {
	counts := make([]int, t.height)
	var walk func(p iosim.PageID) error
	walk = func(p iosim.PageID) error {
		var nd Node
		if err := t.ReadNode(pr, p, &nd); err != nil {
			return err
		}
		if int(nd.Level) >= len(counts) {
			return fmt.Errorf("rtree: node level %d exceeds height %d", nd.Level, t.height)
		}
		counts[nd.Level]++
		if nd.Leaf() {
			return nil
		}
		for _, e := range nd.Entries {
			if err := walk(iosim.PageID(e.Ref)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root); err != nil {
		return nil, err
	}
	return counts, nil
}

// Validate traverses the whole tree checking structural invariants:
// every node's parent entry rectangle equals the node's MBR, levels
// decrease by one along every edge, entry counts respect the fanout,
// and the number of data records matches NumRecords. It returns the
// first violation found.
func (t *Tree) Validate(pr PageReader) error {
	var records int64
	var nodes int
	var leaves int

	var walk func(p iosim.PageID, wantLevel int, wantMBR *geom.Rect) error
	walk = func(p iosim.PageID, wantLevel int, wantMBR *geom.Rect) error {
		var n Node
		if err := t.ReadNode(pr, p, &n); err != nil {
			return err
		}
		nodes++
		if int(n.Level) != wantLevel {
			return fmt.Errorf("rtree: page %d has level %d, want %d", p, n.Level, wantLevel)
		}
		if len(n.Entries) > t.fanout {
			return fmt.Errorf("rtree: page %d has %d entries, fanout %d", p, len(n.Entries), t.fanout)
		}
		if wantMBR != nil {
			if got := n.MBR(); got != *wantMBR {
				return fmt.Errorf("rtree: page %d MBR %v, parent says %v", p, got, *wantMBR)
			}
		}
		if n.Leaf() {
			leaves++
			records += int64(len(n.Entries))
			return nil
		}
		if len(n.Entries) == 0 {
			return fmt.Errorf("rtree: empty internal node %d", p)
		}
		for _, e := range n.Entries {
			r := e.Rect
			if err := walk(iosim.PageID(e.Ref), wantLevel-1, &r); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, t.height-1, nil); err != nil {
		return err
	}
	if records != t.entries {
		return fmt.Errorf("rtree: %d records reachable, tree claims %d", records, t.entries)
	}
	if nodes != t.numNodes {
		return fmt.Errorf("rtree: %d nodes reachable, tree claims %d", nodes, t.numNodes)
	}
	if leaves != t.leaves {
		return fmt.Errorf("rtree: %d leaves reachable, tree claims %d", leaves, t.leaves)
	}
	return nil
}

// String implements fmt.Stringer.
func (t *Tree) String() string {
	return fmt.Sprintf("rtree(height %d, %d nodes, %d leaves, %d records, %.0f%% packed)",
		t.height, t.numNodes, t.leaves, t.entries, 100*t.PackingRatio())
}
