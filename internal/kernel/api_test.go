package kernel_test

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/iommu"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/smp"
)

// kernelAPI classifies every exported method of *kernel.Kernel, the
// test exports of export_test.go included, by how the lockstep checker
// (lockstep_test.go) relates to it:
//
//   - "op <name>": the lockstep op <name> makes the call, directly or
//     through the method that wraps it;
//   - "observer": it reads state and changes none;
//   - "callback": the hardware or the shootdown layer calls the kernel
//     through it (machine.OS and its optional interfaces, iommu.OS,
//     smp.Handler);
//   - "setter": it is called only while a kernel is set up;
//   - "excluded: <reason>": the lockstep leaves it out, for the reason
//     given.
var kernelAPI = map[string]string{
	"Attach":               "op attach",
	"ClearDirty":           "op clear-dirty",
	"ClearPageRights":      "op clear-page",
	"ConvergeProtection":   "op converge", // through oracle.CheckConvergence
	"CreateDomainChecked":  "op create",
	"CreateSegment":        "op create-seg",
	"CreateSegmentChecked": "op create-seg", // through CreateSegment
	"DeferShootdowns":      "op window",
	"DestroyDomain":        "op destroy",
	"DestroySegment":       "op destroy-seg",
	"Detach":               "op detach",
	"DeviceReadPage":       "op dev-read",
	"DeviceTouch":          "op dev-touch",
	"DeviceWritePage":      "op dev-write",
	"FlushShootdowns":      "op window",
	"ForkDomain":           "op fork",
	"KernelPeekPage":       "op kernel-read", // through KernelReadPage
	"KernelReadPage":       "op kernel-read",
	"KernelWritePage":      "op kernel-write",
	"Load":                 "op load",
	"PageOut":              "op page-out",
	"ProgramDevice":        "op program",
	"RecoverHardware":      "op recover",
	"RejoinDevice":         "op rejoin-device",
	"SetCPU":               "op set-cpu",
	"SetIPIFault":          "op partition", // the lane's hook drops the partitioned seat's deliveries
	"SetPageRights":        "op set-page",
	"SetSegmentRights":     "op set-seg",
	"Store":                "op store",
	"Touch":                "op load", // an instruction fetch
	"Unmap":                "op unmap",

	"CheckAttachmentBookkeeping":  "observer",
	"CheckPageGroupBookkeeping":   "observer",
	"CheckTranslationBookkeeping": "observer",
	"ConvergenceBound":            "observer",
	"Counters":                    "observer",
	"Cycles":                      "observer",
	"Device":                      "observer",
	"DeviceFenced":                "observer",
	"DeviceSeat":                  "observer",
	"DiskBlocks":                  "observer",
	"DomainLive":                  "observer",
	"DomainResident":              "observer",
	"Domains":                     "observer",
	"ExecutingSeats":              "observer",
	"ExecutionSite":               "observer",
	"ExecutorRights":              "observer",
	"FindSegment":                 "observer",
	"FreeDomainIDs":               "observer",
	"FreeGroupIDs":                "observer",
	"Geometry":                    "observer",
	"IPIFaultArmed":               "observer",
	"LiveDomains":                 "observer",
	"Machine":                     "observer",
	"MachineAt":                   "observer",
	"Mapped":                      "observer",
	"Memory":                      "observer",
	"Model":                       "observer",
	"NumCPUs":                     "observer",
	"NumDevices":                  "observer",
	"NumSeats":                    "observer",
	"OnBackingStore":              "observer",
	"PageResident":                "observer",
	"PendingShootdowns":           "observer",
	"Seat":                        "observer",
	"SeatHealth":                  "observer",
	"SeatName":                    "observer",
	"SeatTrusted":                 "observer",
	"Segments":                    "observer",
	"ShootdownProtocolEnabled":    "observer",
	"TotalCycles":                 "observer",

	"ApplyShootdown":    "callback",
	"CPUCycles":         "callback",
	"DomainGroup":       "callback",
	"DomainGroups":      "callback",
	"NoteDeviceInstall": "callback",
	"NotePageInstall":   "callback",
	"NoteProtInstall":   "callback",
	"PageInfo":          "callback",
	"ProtShift":         "callback",
	"ResolveRights":     "callback",
	"Translate":         "callback",
	"Walk":              "callback",

	"EnableShootdownProtocol": "setter",
	"SetIDLimits":             "setter",
	"SetPager":                "setter",

	"Call":             "excluded: two switches around caller-supplied work, whose accesses are ops of their own",
	"Charge":           "excluded: adds kernel cycles for user-level servers and changes no protection state",
	"CreateDomain":     "excluded: the panicking form of CreateDomainChecked, which create calls",
	"DropPageSharer":   "excluded: a test export that plants a sharer-directory fault for the oracle's own tests",
	"GrantExecutor":    "excluded: execution-keyed grants are domain-page only (exec_test.go and the mutation table)",
	"ReadPage":         "excluded: a checked load of the page's first word, which load makes, then a copy of the frame",
	"RevokeExecutor":   "excluded: execution-keyed grants are domain-page only (exec_test.go and the mutation table)",
	"SetExecutionSite": "excluded: execution-keyed grants are domain-page only (exec_test.go and the mutation table)",
	"SetFaultInjector": "excluded: injected frame, handler, trap and paging failures are the chaos campaign's; the model predicts none",
	"Switch":           "excluded: every access switches inside Touch; a bare switch changes no authority",
}

// kernelCallbacks are the interfaces the kernel is called through.
var kernelCallbacks = []reflect.Type{
	reflect.TypeFor[machine.OS](), reflect.TypeFor[machine.ProtShifter](),
	reflect.TypeFor[machine.ResidencyObserver](), reflect.TypeFor[machine.MultiOS](),
	reflect.TypeFor[iommu.OS](), reflect.TypeFor[smp.Handler](),
}

// TestKernelMethodsClassified lists *kernel.Kernel's exported methods by
// reflection and holds each to its entry in kernelAPI: an op's name must
// be a lockstep op, a callback must belong to one of kernelCallbacks, an
// exclusion must give its reason. A method kernelAPI does not classify
// fails, so a new kernel call cannot bypass the lockstep unnoticed; so
// does an entry naming no method.
func TestKernelMethodsClassified(t *testing.T) {
	ops := make(map[string]bool)
	for _, spec := range opSpecs {
		ops[spec.name] = true
	}
	typ := reflect.TypeFor[*kernel.Kernel]()
	for i := range typ.NumMethod() {
		name := typ.Method(i).Name
		class, ok := kernelAPI[name]
		op, isOp := strings.CutPrefix(class, "op ")
		reason, isExcluded := strings.CutPrefix(class, "excluded: ")
		switch {
		case !ok:
			t.Errorf("%s is not classified: make a lockstep op call it, or add it to kernelAPI", name)
		case isOp:
			if !ops[op] {
				t.Errorf("%s: %q is not a lockstep op", name, op)
			}
		case class == "callback":
			if !slices.ContainsFunc(kernelCallbacks, func(it reflect.Type) bool {
				_, ok := it.MethodByName(name)
				return ok
			}) {
				t.Errorf("%s is classified a callback, but no interface in kernelCallbacks has it", name)
			}
		case class == "observer", class == "setter":
		case isExcluded && reason != "":
		default:
			t.Errorf("%s: unknown class %q", name, class)
		}
	}
	for name := range kernelAPI {
		if _, ok := typ.MethodByName(name); !ok {
			t.Errorf("kernelAPI classifies %s, which *kernel.Kernel does not have", name)
		}
	}
}
