// Package pathfinder implements the PATHFINDER pattern-based packet
// classifier (Bailey et al., OSDI 1994) that the CNI board uses to
// demultiplex incoming packets to the right Application Device Channel
// or Application Interrupt Handler (Section 2.1 of the CNI paper).
//
// A pattern is a sequence of field comparisons (offset, mask, value)
// against the packet header. Patterns are compiled into a shared
// decision DAG: patterns with a common prefix of comparisons share
// nodes, so the match work for n similar patterns is far below n full
// scans — this is the property that let PATHFINDER run at line rate in
// hardware. Classify reports the number of field tests performed so
// callers can model hardware (constant-ish) or software (per-test)
// classification cost.
//
// PATHFINDER's second key feature is fragment handling: only a
// packet's first cell carries the protocol header, so a successful
// match installs transient per-VCI state that routes the remaining
// cells of the packet without re-classification.
package pathfinder

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Value is the opaque routing target a pattern maps to (an ADC channel
// number, an AIH handler id, ...).
type Value uint64

// Field is one comparison: load the 32-bit big-endian word at Offset
// bytes into the header, AND it with Mask, compare with Value.
type Field struct {
	Offset int
	Mask   uint32
	Value  uint32
}

// Pattern is an ordered conjunction of Fields. The order is the order
// tests are wired into the DAG; patterns intended to share prefix nodes
// should list their common fields first (as the on-board channel setup
// code does: protocol id, then channel id, then operation).
type Pattern []Field

func (p Pattern) String() string {
	s := ""
	for i, f := range p {
		if i > 0 {
			s += " & "
		}
		s += fmt.Sprintf("[%d]&%#x==%#x", f.Offset, f.Mask, f.Value&f.Mask)
	}
	return s
}

// test is a DAG node: every pattern passing through it compares the
// same (offset, mask) and branches on the masked value.
type test struct {
	offset   int
	mask     uint32
	branches map[uint32]*node
}

// node is a point between tests: either a leaf, or a set of candidate
// tests to try in programming order.
type node struct {
	leaf  bool
	value Value
	tests []*test
}

// Stats counts classifier activity.
type Stats struct {
	Programmed   int
	Classified   uint64
	FieldTests   uint64
	Misses       uint64
	FragHits     uint64
	FragInstalls uint64
}

// Classifier is one PATHFINDER instance (one per board).
type Classifier struct {
	root  node
	frags map[uint32]Value
	Stats Stats
}

// New returns an empty classifier.
func New() *Classifier {
	return &Classifier{frags: make(map[uint32]Value)}
}

// ErrEmptyPattern is returned when programming a pattern with no fields.
var ErrEmptyPattern = errors.New("pathfinder: empty pattern")

// ErrDuplicate is returned when a pattern identical to an existing one
// is programmed with a different value.
var ErrDuplicate = errors.New("pathfinder: pattern already programmed")

// Program wires pat into the DAG, routing matches to v. Patterns
// programmed earlier win ties on overlapping matches.
func (c *Classifier) Program(pat Pattern, v Value) error {
	if len(pat) == 0 {
		return ErrEmptyPattern
	}
	n := &c.root
	for _, f := range pat {
		var tt *test
		for _, cand := range n.tests {
			if cand.offset == f.Offset && cand.mask == f.Mask {
				tt = cand
				break
			}
		}
		if tt == nil {
			tt = &test{offset: f.Offset, mask: f.Mask, branches: make(map[uint32]*node)}
			n.tests = append(n.tests, tt)
		}
		next := tt.branches[f.Value&f.Mask]
		if next == nil {
			next = &node{}
			tt.branches[f.Value&f.Mask] = next
		}
		n = next
	}
	if n.leaf && n.value != v {
		return ErrDuplicate
	}
	if !n.leaf {
		c.Stats.Programmed++
	}
	n.leaf = true
	n.value = v
	return nil
}

// Unprogram removes pat's leaf. It returns false if pat was never
// programmed. Shared interior nodes remain (the hardware reclaims them
// lazily; so do we — correctness does not depend on reclamation).
func (c *Classifier) Unprogram(pat Pattern) bool {
	n := &c.root
	for _, f := range pat {
		var tt *test
		for _, cand := range n.tests {
			if cand.offset == f.Offset && cand.mask == f.Mask {
				tt = cand
				break
			}
		}
		if tt == nil {
			return false
		}
		next := tt.branches[f.Value&f.Mask]
		if next == nil {
			return false
		}
		n = next
	}
	if !n.leaf {
		return false
	}
	n.leaf = false
	c.Stats.Programmed--
	return true
}

// word loads the 32-bit big-endian word at off, zero-padded past the
// end of the header (matching what the hardware sees on short cells).
func word(hdr []byte, off int) uint32 {
	var buf [4]byte
	for i := 0; i < 4; i++ {
		if off+i >= 0 && off+i < len(hdr) {
			buf[i] = hdr[off+i]
		}
	}
	return binary.BigEndian.Uint32(buf[:])
}

// Classify matches hdr against the DAG and returns the programmed
// value, the number of field tests performed, and whether anything
// matched. The search tries tests in programming order and follows the
// first branch whose subtree produces a match, so earlier-programmed
// patterns win overlaps.
func (c *Classifier) Classify(hdr []byte) (Value, int, bool) {
	c.Stats.Classified++
	tests := 0
	v, ok := classify(&c.root, hdr, &tests)
	c.Stats.FieldTests += uint64(tests)
	if !ok {
		c.Stats.Misses++
	}
	return v, tests, ok
}

func classify(n *node, hdr []byte, tests *int) (Value, bool) {
	if n.leaf {
		return n.value, true
	}
	for _, tt := range n.tests {
		*tests++
		next := tt.branches[word(hdr, tt.offset)&tt.mask]
		if next == nil {
			continue
		}
		if v, ok := classify(next, hdr, tests); ok {
			return v, ok
		}
	}
	return 0, false
}

// InstallFragmentFlow records that the remaining cells of the packet on
// vci route to v without header classification.
func (c *Classifier) InstallFragmentFlow(vci uint32, v Value) {
	c.frags[vci] = v
	c.Stats.FragInstalls++
}

// ClassifyFragment routes a non-first cell by its VCI flow state.
func (c *Classifier) ClassifyFragment(vci uint32) (Value, bool) {
	v, ok := c.frags[vci]
	if ok {
		c.Stats.FragHits++
	}
	return v, ok
}

// RouteFragments accounts the n non-first cells of one packet that
// reaches the board whole: the flow its first cell installs routes all
// n and is torn down after the last, and no other packet can read it
// in between, so the classifier counts the install and the n hits and
// keeps no flow state.
func (c *Classifier) RouteFragments(n int) {
	c.Stats.FragInstalls++
	c.Stats.FragHits += uint64(n)
}

// RemoveFragmentFlow tears down the per-packet flow state once the last
// cell has been routed.
func (c *Classifier) RemoveFragmentFlow(vci uint32) {
	delete(c.frags, vci)
}

// FragmentFlows reports how many transient flows are installed.
func (c *Classifier) FragmentFlows() int { return len(c.frags) }
