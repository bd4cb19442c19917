package main

import (
	"reflect"

	"repro/internal/kernel"
	"repro/internal/machine"
)

// addCounters adds machine m's event counters and verdict fast-path
// statistics into dst.
func addCounters(dst map[string]uint64, m machine.Machine) {
	for n, v := range m.Counters().Snapshot() {
		dst[n] += v
	}
	addFastPath(dst, m)
}

// addKernelCounters adds the counters of every CPU's machine and of the
// kernel itself (which include the smp and iommu layers) into dst.
func addKernelCounters(dst map[string]uint64, k *kernel.Kernel) {
	for i := 0; i < k.NumCPUs(); i++ {
		addCounters(dst, k.MachineAt(i))
	}
	for n, v := range k.Counters().Snapshot() {
		dst[n] += v
	}
}

// addFastPath adds the verdict fast path's host-side statistics, which are
// kept out of the simulated counters. They are read by reflection so that
// the benchmark keeps building if the fast path is removed; its metrics
// then read zero.
func addFastPath(dst map[string]uint64, m machine.Machine) {
	fn := reflect.ValueOf(m).MethodByName("FastPathStats")
	if !fn.IsValid() || fn.Type().NumIn() != 0 || fn.Type().NumOut() != 1 {
		return
	}
	st := fn.Call(nil)[0]
	if st.Kind() != reflect.Struct {
		return
	}
	for field, name := range map[string]string{
		"Hits": "fastpath.hits", "Installs": "fastpath.installs", "Invalidations": "fastpath.invalidations",
	} {
		if v := st.FieldByName(field); v.IsValid() && v.CanUint() {
			dst[name] += v.Uint()
		}
	}
}
