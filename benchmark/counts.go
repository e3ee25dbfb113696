package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"github.com/virec/virec/internal/sim"
)

// counts are a rep's deterministic, simulated totals: sim counts plus
// every telemetry counter summed over sims with the per-core index
// dropped ("core0/insts" and "core1/insts" both add to "core/insts").
// A host-speed change must leave them bit-identical.
type counts map[string]uint64

func (c counts) addResult(res *sim.Result) {
	c["sim.count"]++
	c["sim.cycles"] += res.Cycles
	c["sim.insts"] += res.Insts
	for name, v := range res.Metrics.Counters {
		c[stripIndex(name)] += v
	}
}

// stripIndex drops the per-instance number from a registry name's first
// segment ("rf0/vrmu/hits" → "rf/vrmu/hits").
func stripIndex(name string) string {
	head, rest, ok := strings.Cut(name, "/")
	head = strings.TrimRight(head, "0123456789")
	if !ok {
		return head
	}
	return head + "/" + rest
}

func (c counts) keys() []string {
	ks := make([]string, 0, len(c))
	for k := range c {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// digest is the SHA-256 of the sorted "name=value" lines.
func (c counts) digest() string {
	h := sha256.New()
	for _, k := range c.keys() {
		fmt.Fprintf(h, "%s=%d\n", k, c[k])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// diffCounts lists the names whose values differ.
func diffCounts(a, b counts) string {
	var out strings.Builder
	seen := map[string]bool{}
	for _, k := range append(a.keys(), b.keys()...) {
		if seen[k] {
			continue
		}
		seen[k] = true
		if a[k] != b[k] {
			fmt.Fprintf(&out, "  %s: %d vs %d\n", k, a[k], b[k])
		}
	}
	return out.String()
}

func (c counts) f(name string) float64 { return float64(c[name]) }

// perKinst normalises a counter by thousands of committed instructions.
func (c counts) perKinst(name string) float64 {
	return ratio(c.f(name), c.f("sim.insts")/1000)
}

// share is a / (sum of the named counters).
func (c counts) share(a string, of ...string) float64 {
	var d float64
	for _, n := range of {
		d += c.f(n)
	}
	return ratio(c.f(a), d)
}

// layerCounts derives the per-layer count metrics of the traced rep.
func layerCounts(c counts) map[string]float64 {
	dAccess := []string{"dcache/hits", "dcache/misses", "dcache/merged_misses"}
	return map[string]float64{
		"sim.count":     c.f("sim.count"),
		"sim.cycles":    c.f("sim.cycles"),
		"sim.insts":     c.f("sim.insts"),
		"sim.ipc":       ratio(c.f("sim.insts"), c.f("sim.cycles")),
		"sim.skip_frac": ratio(c.f("sim.skipped"), c.f("sim.cycles")),

		"cpu.ctx_switches_per_kinst": c.perKinst("core/ctx_switches"),
		"cpu.decode_reg_stall_frac":  c.share("core/decode_reg_stalls", "core/cycles"),
		"cpu.fetch_stall_frac":       c.share("core/fetch_stalls", "core/cycles"),
		"cpu.mem_wait_frac":          c.share("core/mem_wait_cycles", "core/cycles"),
		"cpu.switch_wait_frac":       c.share("core/switch_waits", "core/cycles"),

		"vrmu.hit_rate":            c.share("rf/vrmu/hits", "rf/vrmu/hits", "rf/vrmu/misses"),
		"vrmu.evictions_per_kinst": c.perKinst("rf/vrmu/evictions"),
		"vrmu.dirty_evict_frac":    c.share("rf/vrmu/dirty_evicts", "rf/vrmu/evictions"),
		"vrmu.cresets_per_kinst":   c.perKinst("rf/vrmu/c_resets"),

		"regfile.bsi_fills_per_kinst":  c.perKinst("rf/fills_issued"),
		"regfile.bsi_spills_per_kinst": c.perKinst("rf/spills_issued"),

		"cache.d_hit_rate": c.share("dcache/hits", dAccess...),
		"cache.d_reg_access_frac": ratio(c.f("dcache/reg_reads")+c.f("dcache/reg_writes"),
			c.f("dcache/hits")+c.f("dcache/misses")+c.f("dcache/merged_misses")),
		"cache.d_port_rejects_per_kinst": c.perKinst("dcache/port_rejects"),
		"cache.i_hit_rate":               c.share("icache/hits", "icache/hits", "icache/misses", "icache/merged_misses"),

		"dram.row_hit_rate":            c.share("dram/row_hits", "dram/row_hits", "dram/row_misses", "dram/row_conflicts"),
		"dram.avg_read_latency_cycles": c.share("dram/total_read_latency", "dram/reads"),
		"dram.reads_per_kinst":         c.perKinst("dram/reads"),

		"xbar.forwarded_per_kinst": c.perKinst("xbar/forwarded"),
		"xbar.rejected":            c.f("xbar/rejected"),

		"difftest.commits":     c.f("difftest.commits"),
		"difftest.scenarios":   c.f("difftest.scenarios"),
		"difftest.divergences": c.f("difftest.divergences"),
	}
}
