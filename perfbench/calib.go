package main

import (
	"bytes"
	"context"
	"embed"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"valueprof/perfbench/refvm/program"
	"valueprof/perfbench/refvm/vm"
)

// Host-speed reference.
//
// The benchmark shares a few cores of a host with other machines, and
// how fast those cores run drifts by up to ±25% over minutes, at times
// far more for an interpreter than for simpler code. A timing taken in
// a slow minute would read as a regression of the program. So every
// timed phase is interleaved with short reference slices: runs of a
// frozen copy of the interpreter (refvm/, a snapshot of internal/vm,
// internal/isa and internal/program) on frozen guest images
// (refvm/images/, five compiled workloads). No change to the program
// changes the reference's work, and the reference is the same kind of
// work as the program's, so a host slowdown slows both alike. The
// host's speed during a phase is refNominalNs over the median slice
// time of that phase, and each timing metric is reported at reference
// speed: a time multiplied by a power of the speed (see
// refSpeedElasticity), a rate divided by it.
//
// The host also takes whole stretches of time from the machine: when it
// is overcommitted, the hypervisor stops the machine's CPUs while they
// have work (steal time), and a job's wall time grows by the stolen
// time while a 2 ms slice mostly runs between two such stops. So a time
// is also multiplied by the share of the CPU time the machine's CPUs
// wanted over the phase that the hypervisor left them, from the busy
// and steal counters of /proc/stat. The raw figures are printed too, on
// the "raw" line before the result.

// refSteps is how many guest instructions one slice runs (about 2 ms),
// and refMemSize the guest memory it clears first. A job's guest
// memory is 8 MiB, but a job runs about a hundred times as many
// instructions; the smaller memory keeps clearing it as small a part
// of a slice as it is of a job.
const (
	refSteps   = 120_000
	refMemSize = 1 << 20
)

// refNominalNs is the time of one reference slice at 70 Minst/s, about
// what the 2-CPU host the benchmark was sized on ran the reference at in
// its usual state, so reported figures there read close to the raw ones.
const refNominalNs = refSteps / 70e6 * 1e9

//go:embed refvm/images/*.vx
var refImages embed.FS

// refGuest is one frozen guest program with its test-size input.
type refGuest struct {
	name  string
	input []int64
	prog  *program.Program
}

var refGuests = []refGuest{
	{name: "bytecode", input: []int64{7, 60}},
	{name: "gosearch", input: []int64{11, 2, 18}},
	{name: "mcsim", input: []int64{42, 400}},
	{name: "wavef", input: []int64{4242, 96}},
	{name: "lifegrid", input: []int64{90125, 10, 30}},
}

// refVM runs every slice, reset in between, as the program's arena
// reuses its VMs.
var refVM *vm.VM

func init() {
	for i := range refGuests {
		g := &refGuests[i]
		img, err := refImages.ReadFile("refvm/images/" + g.name + ".vx")
		if err == nil {
			g.prog, err = program.Load(bytes.NewReader(img))
		}
		if err != nil {
			panic(fmt.Sprintf("reference image %s: %v", g.name, err))
		}
	}
	refVM = vm.NewSized(refGuests[0].prog, refMemSize)
}

// refSlice runs reference slice k: refSteps instructions of one guest.
func refSlice(k int) {
	g := &refGuests[k%len(refGuests)]
	refVM.ResetFor(g.prog, refMemSize)
	refVM.Input = g.input
	refVM.StepLimit = refSteps
	outcome, err := refVM.RunControlled(context.Background())
	if outcome != vm.OutcomeLimit && outcome != vm.OutcomeCompleted {
		panic(fmt.Sprintf("reference slice on %s: %v", g.name, err))
	}
}

// hostRef collects reference slice times and the CPU counters over one
// phase, which begin and end bracket.
type hostRef struct {
	ns     []float64
	t0, t1 cpuTicks
}

func (h *hostRef) begin() { h.t0 = readCPUTicks() }
func (h *hostRef) end()   { h.t1 = readCPUTicks() }

// sample runs n slices, timing each.
func (h *hostRef) sample(n int) {
	for i := 0; i < n; i++ {
		t := time.Now()
		refSlice(len(h.ns))
		h.ns = append(h.ns, float64(time.Since(t).Nanoseconds()))
	}
}

// speed is the host's speed over the phase relative to the reference
// host: below 1 when it ran slow.
func (h *hostRef) speed() float64 { return refNominalNs / median(h.ns) }

// stolen is the share of the CPU time the machine's CPUs wanted over the
// phase that the hypervisor took.
func (h *hostRef) stolen() float64 {
	steal := h.t1.steal - h.t0.steal
	if wanted := h.t1.busy - h.t0.busy + steal; wanted > 0 {
		return steal / wanted
	}
	return 0
}

// refSpeedElasticity is how far the program's speed follows the
// reference's: over about 60 runs of the three workloads on the 2-CPU
// host the benchmark was sized on, the program's speed (with stolen
// time taken out) moved about half as much as the median slice's, and
// scaling by speed^0.5 left the runs' spread 25–60% below that with
// speed^1. Part of what moves the median slice moves the program less,
// and part is noise of the estimate.
const refSpeedElasticity = 0.5

// scale is what a time taken in the phase is multiplied by to bring it
// to reference speed.
func (h *hostRef) scale() float64 { return hostScale(h.speed(), h.stolen()) }

func hostScale(speed, stolen float64) float64 {
	return math.Pow(speed, refSpeedElasticity) * (1 - stolen)
}

// cpuTicks are the busy and stolen time of the machine's CPUs so far,
// in clock ticks.
type cpuTicks struct{ busy, steal float64 }

// readCPUTicks reads the "cpu" line of /proc/stat: user, nice, system,
// idle, iowait, irq, softirq, steal, .... Without it, no time counts as
// stolen.
func readCPUTicks() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	var v [8]float64
	for i := range v {
		v[i], _ = strconv.ParseFloat(f[i+1], 64)
	}
	return cpuTicks{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}
}
