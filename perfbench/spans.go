package main

import (
	"sort"
	"time"

	"cellbricks/internal/obs"
)

// selfTimes returns, for every span of events, its self time: its
// duration minus the part of its interval its child spans cover. Keys
// are "cat/name"; each value lists one self time per span.
//
// Parentage follows the recorded parent IDs, with one correction: a span
// whose interval lies inside a sibling's (same parent, same trace) is
// re-parented under the innermost such sibling. That is how a wrapper
// span recorded around a call — the benchmark's own spans around the NAS
// transport, or the AGW's broker/authenticate step around the broker
// server's broker/handle-auth — takes the callee's span as its child.
func selfTimes(events []obs.TraceEvent) map[string][]time.Duration {
	type node struct {
		ev       obs.TraceEvent
		children []int
	}
	var nodes []node
	bySpan := map[uint64]int{}
	for _, e := range events {
		if e.Instant || e.Span == 0 {
			continue
		}
		bySpan[e.Span] = len(nodes)
		nodes = append(nodes, node{ev: e})
	}
	contains := func(w, s obs.TraceEvent) bool {
		return w.Dur > s.Dur && w.Start <= s.Start && s.Start+s.Dur <= w.Start+w.Dur
	}
	// Siblings grouped by (trace, parent).
	type key struct{ trace, parent uint64 }
	siblings := map[key][]int{}
	for i, n := range nodes {
		k := key{n.ev.Trace, n.ev.Parent}
		siblings[k] = append(siblings[k], i)
	}
	for i, n := range nodes {
		parent := -1
		for _, j := range siblings[key{n.ev.Trace, n.ev.Parent}] {
			if j != i && contains(nodes[j].ev, n.ev) && (parent < 0 || nodes[j].ev.Dur < nodes[parent].ev.Dur) {
				parent = j
			}
		}
		if parent < 0 {
			p, ok := bySpan[n.ev.Parent]
			if !ok {
				continue
			}
			parent = p
		}
		nodes[parent].children = append(nodes[parent].children, i)
	}
	out := map[string][]time.Duration{}
	for _, n := range nodes {
		ivs := make([][2]time.Duration, 0, len(n.children))
		for _, c := range n.children {
			ce := nodes[c].ev
			lo, hi := max(ce.Start, n.ev.Start), min(ce.Start+ce.Dur, n.ev.Start+n.ev.Dur)
			if hi > lo {
				ivs = append(ivs, [2]time.Duration{lo, hi})
			}
		}
		name := n.ev.Cat + "/" + n.ev.Name
		out[name] = append(out[name], n.ev.Dur-unionLen(ivs))
	}
	return out
}

// unionLen is the total length covered by a set of intervals.
func unionLen(ivs [][2]time.Duration) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, end time.Duration
	started := false
	for _, iv := range ivs {
		switch {
		case !started || iv[0] >= end:
			total += iv[1] - iv[0]
			end, started = iv[1], true
		case iv[1] > end:
			total += iv[1] - end
			end = iv[1]
		}
	}
	return total
}
