package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// The program under test only ever sees what this file generates from the
// seed: job IDs, MPI job sizes, the pilot-exec job file and the swift
// script. The same seed gives byte-identical inputs.

// sizes is how much work one round of each workload does. Every count is
// proportional to the run's -seconds so the driver's run length sets the
// measured time: the rates below are what the 2-core calibration box does
// per second in its slower state (see README.md), so a run's rounds together
// measure for about -seconds there and for less on a faster box.
type sizes struct {
	SeqMem     int // noop jobs, closed loop
	SeqDurable int // noop jobs, burst, multiple of the SubmitBatch chunk
	MPIGang    int // MPI jobs
	PilotSeq   int // SEQ: /bin/true lines
	PilotMPI   int // MPI: 2 barrier lines
	SwiftN     int // script loop count; the script makes 2*SwiftN tasks
}

const durableChunk = 256 // SubmitBatch chunk of seq-durable

func sizesFor(seconds float64, smoke bool) sizes {
	if smoke {
		return sizes{SeqMem: 256, SeqDurable: 4096, MPIGang: 40, PilotSeq: 40, PilotMPI: 4, SwiftN: 100}
	}
	per := func(perSecond float64) int { return max(int(perSecond*seconds/rounds), 1) }
	return sizes{
		SeqMem:     per(42000),
		SeqDurable: max(per(27000)/durableChunk, 1) * durableChunk,
		MPIGang:    per(400),
		PilotSeq:   per(468),
		PilotMPI:   per(30),
		SwiftN:     per(12000),
	}
}

// scaled returns the sizes of a traced round: one fifth of a timed round,
// because the trace keeps every span of every job in memory.
func (s sizes) scaled(div int) sizes {
	d := func(n int) int { return max(n/div, 1) }
	return sizes{
		SeqMem:     d(s.SeqMem),
		SeqDurable: max(s.SeqDurable/div/durableChunk, 1) * durableChunk,
		MPIGang:    d(s.MPIGang),
		PilotSeq:   d(s.PilotSeq),
		PilotMPI:   d(s.PilotMPI),
		SwiftN:     d(s.SwiftN),
	}
}

// jobIDs makes n unique job IDs whose text depends on the seed, so ID
// hashing (shard keys, the router's ring, the spill index) sees different
// keys on different seeds.
func jobIDs(seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("j%04x-%d", rng.Intn(1<<16), i)
	}
	return ids
}

// gangSizes draws n MPI job sizes from {2,2,4,4,8}: on 8 workers a size-8
// job at the head of the FIFO forces the allocation to drain before it can
// start, which is the group-assembly behaviour the workload exists to show.
func gangSizes(seed int64, n int) []int {
	rng := rand.New(rand.NewSource(seed ^ 0x6a09e667))
	choices := [...]int{2, 2, 4, 4, 8}
	out := make([]int, n)
	for i := range out {
		out[i] = choices[rng.Intn(len(choices))]
	}
	return out
}

// pilotJobFile renders the pilot-exec input in the stand-alone tool's
// format: seq "SEQ: /bin/true" lines with mpi "MPI: 2 <barrier>" lines at
// seed-chosen positions.
func pilotJobFile(seed int64, seq, mpi int, barrierPath string) string {
	rng := rand.New(rand.NewSource(seed ^ 0x3c6ef372))
	isMPI := make([]bool, seq+mpi)
	for i := 0; i < mpi; i++ {
		isMPI[i] = true
	}
	rng.Shuffle(len(isMPI), func(i, j int) { isMPI[i], isMPI[j] = isMPI[j], isMPI[i] })
	var b strings.Builder
	fmt.Fprintf(&b, "# bench pilot-exec, seed %d: %d SEQ + %d MPI\n", seed, seq, mpi)
	for _, m := range isMPI {
		if m {
			fmt.Fprintf(&b, "MPI: 2 %s\n", barrierPath)
		} else {
			b.WriteString("SEQ: /bin/true\n")
		}
	}
	return b.String()
}

// swiftScript renders the swift-script input: a two-stage chain in which
// every cooked[i] waits for raw[i], with file futures passed as @-arguments.
// It deliberately has no stdout=@ redirection: swiftrun keeps one file open
// per in-flight redirected call and runs out of descriptors at this scale
// (see README.md). n can be overridden with -arg n=... for set-up-only runs.
func swiftScript(seed int64, n int) string {
	rng := rand.New(rand.NewSource(seed ^ 0x510e527f))
	tag := fmt.Sprintf("%04x", rng.Intn(1<<16))
	mul := 2 + rng.Intn(8)
	return fmt.Sprintf(`# bench swift-script, seed %[1]d
int n = toInt(arg("n", "%[2]d"));

app (file o) mkinput_%[3]s (int i) {
    "mkinput" i @o;
}
app (file o) process_%[3]s (file a, int i) {
    "process" @a i @o;
}

file raw[] <"raw_%[3]s_%%d.file">;
file cooked[] <"cooked_%[3]s_%%d.file">;

foreach i in [0:n-1] {
    raw[i] = mkinput_%[3]s(i);
    cooked[i] = process_%[3]s(raw[i], i * %[4]d);
}
trace("chain", n);
`, seed, n, tag, mul)
}
