package main

import "encoding/json"

// metricDef is one row of BENCHMARK.json's metric lists.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression. Per-layer
	// metrics have none, and the key is left out for them.
	Bound float64 `json:"bound,omitempty"`
}

// endToEnd is reported by the untraced pass, the same names on every
// workload. Time-valued ones are read from the quiet composite round and
// host-normalised (see round.go and calib.go).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "units/s", "higher", 0.25},
	{"unit_p50_us", "us", "lower", 0.25},
	{"pt_bytes_per_mapped_page", "bytes", "lower", 0.05},
}

// perLayer is reported by the traced pass. A metric a workload does not
// exercise reads 0 there.
var perLayer = []metricDef{
	// Whole syscalls of corten-adv, mean span time net of lap overhead.
	{Name: "core.syscall.mmap_ns", Unit: "ns", Better: "lower"},
	{Name: "core.syscall.munmap_ns", Unit: "ns", Better: "lower"},
	{Name: "core.syscall.mprotect_ns", Unit: "ns", Better: "lower"},
	{Name: "core.syscall.fault_ns", Unit: "ns", Better: "lower"},
	{Name: "core.syscall.self_ns_per_unit", Unit: "ns", Better: "lower"},
	{Name: "core.syscall.kernel_ns_per_unit", Unit: "ns", Better: "lower"},
	{Name: "core.syscall.faults_per_unit", Unit: "count", Better: "lower"},
	{Name: "core.syscall.soft_faults_per_unit", Unit: "count", Better: "lower"},
	{Name: "core.access_ns", Unit: "ns", Better: "lower"},
	// The decomposed replay, one span per call into the layer.
	{Name: "core.lock.acquire_ns", Unit: "ns", Better: "lower"},
	{Name: "core.lock.acquire_p99_ns", Unit: "ns", Better: "lower"},
	{Name: "core.lock.close_ns", Unit: "ns", Better: "lower"},
	{Name: "core.cursor.query_ns", Unit: "ns", Better: "lower"},
	{Name: "core.cursor.mark_ns", Unit: "ns", Better: "lower"},
	{Name: "core.cursor.map_ns", Unit: "ns", Better: "lower"},
	{Name: "core.cursor.unmap_ns", Unit: "ns", Better: "lower"},
	{Name: "core.cursor.protect_ns", Unit: "ns", Better: "lower"},
	{Name: "core.cursor.populate_ns_per_page", Unit: "ns", Better: "lower"},
	{Name: "core.cursor.unmap_ns_per_page", Unit: "ns", Better: "lower"},
	{Name: "cpusim.va_alloc_ns", Unit: "ns", Better: "lower"},
	{Name: "cpusim.va_free_ns", Unit: "ns", Better: "lower"},
	{Name: "cpusim.optick_ns", Unit: "ns", Better: "lower"},
	{Name: "mem.alloc_frame_ns", Unit: "ns", Better: "lower"},
	// Substrate probes on the warmed machine.
	{Name: "pt.walk_ns", Unit: "ns", Better: "lower"},
	{Name: "pt.walk_access_ns", Unit: "ns", Better: "lower"},
	{Name: "pt.set_pte_ns", Unit: "ns", Better: "lower"},
	{Name: "pt.meta_set_ns", Unit: "ns", Better: "lower"},
	{Name: "pt.meta_get_ns", Unit: "ns", Better: "lower"},
	{Name: "pt.pt_pages", Unit: "count", Better: "lower"},
	{Name: "mem.alloc_put_ns", Unit: "ns", Better: "lower"},
	{Name: "mem.alloc_batch_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "mem.alloc_order9_ns", Unit: "ns", Better: "lower"},
	{Name: "mem.data_page_first_ns", Unit: "ns", Better: "lower"},
	{Name: "mem.frames_per_unit", Unit: "count", Better: "lower"},
	{Name: "mem.local_fraction", Unit: "ratio", Better: "higher"},
	{Name: "tlb.lookup_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "tlb.lookup_miss_ns", Unit: "ns", Better: "lower"},
	{Name: "tlb.insert_ns", Unit: "ns", Better: "lower"},
	{Name: "tlb.shootdown_range_ns", Unit: "ns", Better: "lower"},
	{Name: "tlb.tick_ns", Unit: "ns", Better: "lower"},
	{Name: "tlb.lookups_per_unit", Unit: "count", Better: "lower"},
	{Name: "tlb.hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "tlb.shootdowns_per_unit", Unit: "count", Better: "lower"},
	{Name: "tlb.ipis_per_unit", Unit: "count", Better: "lower"},
	{Name: "tlb.filtered_per_unit", Unit: "count", Better: "higher"},
	{Name: "tlb.deferred_per_unit", Unit: "count", Better: "lower"},
	{Name: "tlb.applied_per_unit", Unit: "count", Better: "lower"},
	{Name: "tlb.genbumps_per_unit", Unit: "count", Better: "lower"},
	{Name: "tlb.evictions_per_unit", Unit: "count", Better: "lower"},
	{Name: "tlb.staledrops_per_unit", Unit: "count", Better: "lower"},
	{Name: "rcu.read_section_ns", Unit: "ns", Better: "lower"},
	{Name: "rcu.defer_ns", Unit: "ns", Better: "lower"},
	{Name: "rcu.poll_ns", Unit: "ns", Better: "lower"},
	{Name: "rcu.deferred_per_unit", Unit: "count", Better: "lower"},
	{Name: "rcu.pending_at_end", Unit: "count", Better: "lower"},
	{Name: "locks.mcs_ns", Unit: "ns", Better: "lower"},
	{Name: "locks.pfq_read_ns", Unit: "ns", Better: "lower"},
	{Name: "locks.bravo_read_ns", Unit: "ns", Better: "lower"},
	{Name: "locks.mcs_handoff_2t_ns", Unit: "ns", Better: "lower"},
	// Reference pass: the same streams on the other systems, not gated.
	{Name: "vma.ops_per_s", Unit: "units/s", Better: "higher"},
	{Name: "core.rw.ops_per_s", Unit: "units/s", Better: "higher"},
	// The host and the harness.
	{Name: "host.calib_factor", Unit: "ratio", Better: "lower"},
	{Name: "host.ops_per_s_raw", Unit: "units/s", Better: "higher"},
	{Name: "host.unit_p99_us", Unit: "us", Better: "lower"},
	{Name: "host.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "host.unit_self_share", Unit: "ratio", Better: "lower"},
	{Name: "host.lap_overhead_ns", Unit: "ns", Better: "lower"},
	{Name: "host.time_now_ns", Unit: "ns", Better: "lower"},
	{Name: "host.go_alloc_bytes_per_unit", Unit: "bytes", Better: "lower"},
	{Name: "host.go_mallocs_per_unit", Unit: "count", Better: "lower"},
	{Name: "host.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "host.peak_rss_mb", Unit: "MB", Better: "lower"},
}

// runSeconds is how long the driver lets one run measure.
const runSeconds = 15

// manifest renders BENCHMARK.json from the tables above, so the file and
// the program cannot name different metrics.
func manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	return append(out, '\n'), err
}
