// Package cluster defines the versioned membership vocabulary of the
// elastic runtime: a View names the epoch and the live worker ranks,
// and every layer that used to hard-code a fixed mesh size N — the
// transport's peer lifecycle, the comm router's shard/group sizing, the
// planner's ClusterShape, the trainer's data sharding — now derives it
// from the current View instead. Views advance only at view-change
// barriers (membership changes and planned replans alike), so an epoch
// number fully determines who participated in every fold of that
// epoch — the property that keeps replicas byte-identical across
// join/leave/crash transitions.
package cluster

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// View is one membership epoch: the set of live worker ranks (slot ids
// in the cluster's fixed address space, ascending) and the epoch
// counter that versions it. The zero View (epoch 0, no members) is
// "unformed".
type View struct {
	Epoch   int
	Members []int
}

// Initial returns epoch 0 with members 0..n-1 — the fixed-size mesh
// every cluster starts as.
func Initial(n int) View {
	m := make([]int, n)
	for i := range m {
		m[i] = i
	}
	return View{Epoch: 0, Members: m}
}

// Size returns the number of live members.
func (v View) Size() int { return len(v.Members) }

// Contains reports whether rank is a live member.
func (v View) Contains(rank int) bool { return v.Index(rank) >= 0 }

// Index returns rank's dense index in the member list (the worker's
// position for data sharding and KV fold ordering), or -1 when rank is
// not a member. Dense indices are what the comm layer's fixed-size
// protocol state is built over; the view is the translation table
// between them and transport slot ranks.
func (v View) Index(rank int) int {
	i := sort.SearchInts(v.Members, rank)
	if i < len(v.Members) && v.Members[i] == rank {
		return i
	}
	return -1
}

// Leader returns the lowest live rank — the member that composes the
// next view during a membership barrier. -1 when the view is empty.
func (v View) Leader() int {
	if len(v.Members) == 0 {
		return -1
	}
	return v.Members[0]
}

// Next derives the successor view: epoch+1, with the dead ranks removed
// and the joined ranks added (both sets may be empty; unknown dead
// ranks are ignored, duplicate joins collapse).
func (v View) Next(dead, joined []int) View {
	drop := make(map[int]bool, len(dead))
	for _, r := range dead {
		drop[r] = true
	}
	members := make([]int, 0, len(v.Members)+len(joined))
	for _, r := range v.Members {
		if !drop[r] {
			members = append(members, r)
		}
	}
	for _, r := range joined {
		if !drop[r] {
			members = append(members, r)
		}
	}
	sort.Ints(members)
	// Collapse duplicates (a rejoining rank may race its own removal).
	out := members[:0]
	for i, r := range members {
		if i == 0 || members[i-1] != r {
			out = append(out, r)
		}
	}
	return View{Epoch: v.Epoch + 1, Members: out}
}

// Clone deep-copies the view.
func (v View) Clone() View {
	return View{Epoch: v.Epoch, Members: append([]int(nil), v.Members...)}
}

// Equal reports whether two views name the same epoch and members.
func (v View) Equal(o View) bool {
	if v.Epoch != o.Epoch || len(v.Members) != len(o.Members) {
		return false
	}
	for i, r := range v.Members {
		if o.Members[i] != r {
			return false
		}
	}
	return true
}

// String renders "epoch 3 {0 1 3 4}".
func (v View) String() string { return fmt.Sprintf("epoch %d %v", v.Epoch, v.Members) }

// AppendWire appends the view's wire encoding (u32 epoch, u32 count,
// u32 per member, little-endian) to buf.
func (v View) AppendWire(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(v.Epoch))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v.Members)))
	for _, r := range v.Members {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(r))
	}
	return buf
}

// DecodeWire parses a view from the front of buf and returns the
// remainder.
func DecodeWire(buf []byte) (View, []byte, error) {
	if len(buf) < 8 {
		return View{}, nil, fmt.Errorf("cluster: short view encoding: %d bytes", len(buf))
	}
	v := View{Epoch: int(binary.LittleEndian.Uint32(buf))}
	n := int(binary.LittleEndian.Uint32(buf[4:]))
	buf = buf[8:]
	if n < 0 || len(buf) < 4*n {
		return View{}, nil, fmt.Errorf("cluster: view encoding truncated: %d members, %d bytes left", n, len(buf))
	}
	v.Members = make([]int, n)
	for i := range v.Members {
		v.Members[i] = int(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	for i := 1; i < n; i++ {
		if v.Members[i] <= v.Members[i-1] {
			return View{}, nil, fmt.Errorf("cluster: view members not strictly ascending: %v", v.Members)
		}
	}
	return v, buf[4*n:], nil
}
