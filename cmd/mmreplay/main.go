// Command mmreplay replays a memory-management syscall trace against
// any of the implemented systems, judges every answer against the flat
// model (spec.Flat), and reports operation statistics — useful for
// comparing systems on recorded application behaviour. It exits 1 at
// the first disagreement with the model, a teardown that leaves
// anything behind, or a fault of the trace.
//
// Usage:
//
//	mmreplay [-sys corten-adv] [-cores 4] [-v] trace.mmt
//	mmreplay -demo
//
// Trace format (one op per line, '#' comments):
//
//	mmap   <name> <bytes> [perm [populate]]   # perm: r, rw, rwx (default rw)
//	munmap <name>
//	touch  <name> <pageoff> [r|w|x]
//	store  <name> <pageoff> <byte>
//	load   <name> <pageoff>
//	protect <name> <perm>
//	madvise <name>                 # MADV_DONTNEED the whole region
//	swapout <name>
//	mremap <name> <newbytes>
//	thread <n>                     # run following ops on core n
//
// Region names bind the address returned by their mmap or mremap. After
// a munmap the name stays bound to its old range, a hole, until the next
// mmap.
package main

import (
	"bufio"
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"strconv"
	"strings"

	"cortenmm/internal/arch"
	"cortenmm/internal/bench"
	"cortenmm/internal/cpusim"
	"cortenmm/internal/mm"
	"cortenmm/internal/pt"
	"cortenmm/internal/spec"
)

const demoTrace = `# demo: allocator-style churn plus a protected region
mmap heap 1048576 rw
touch heap 0 w
touch heap 1 w
touch heap 255 w
store heap 3 42
load heap 3
mmap code 65536 rwx
touch code 0 x
protect code r
thread 1
mmap scratch 262144 rw
store scratch 10 7
mremap scratch 524288
store scratch 20 8
madvise scratch
touch scratch 10 r
munmap scratch
thread 0
swapout heap
load heap 3
munmap heap
munmap code
`

// frames is the replay machine's memory, 128 MiB: building and auditing
// it is most of a short replay's cost, which bounds how fast FuzzTrace
// runs. maxLive is the most pages a replay may hold live: the end of a
// replay reads every live page, and each read may fault a frame in.
const (
	frames  = 1 << 15
	maxLive = frames / 4
)

// errTrace marks a fault of the trace itself: a parse error, an unknown
// region, an offset out of range, or more than maxLive live pages. It
// stops the replay and says nothing about the system.
var errTrace = errors.New("bad trace")

func badTrace(format string, a ...any) error {
	return fmt.Errorf("%w: %s", errTrace, fmt.Sprintf(format, a...))
}

// A region is what a name binds: the range its last mmap or mremap
// returned. After a munmap the name stays bound to the range as a hole
// until the next mmap, so an op on it addresses a hole on every system.
type region struct {
	va   arch.Vaddr
	size uint64
	hole bool
}

// An observation is the class of the system's answer to one op (nil for
// success). An op outside the system's method set is skipped and
// observed as mm.ErrNotSupported.
type observation struct {
	line  int
	class error
}

// A replayer runs a trace on one system and on the flat model beside
// it, and judges every answer against the model's.
type replayer struct {
	sys     mm.MM
	model   *spec.Flat
	regions map[string]region
	core    int
	lineNo  int
	log     []observation
	verbose bool
	w       io.Writer
}

func parsePerm(s string) (arch.Perm, error) {
	switch s {
	case "r":
		return arch.PermRead, nil
	case "rw":
		return arch.PermRW, nil
	case "rx":
		return arch.PermRead | arch.PermExec, nil
	case "rwx":
		return arch.PermRWX, nil
	}
	return 0, badTrace("bad perm %q", s)
}

// judge logs the system's answer to one op and compares it with the
// model's: the same class, and for a load the same byte.
func (r *replayer) judge(got, want error, b, wantB byte) error {
	class, ok := spec.Class(got)
	r.log = append(r.log, observation{r.lineNo, class})
	if r.verbose && got != nil {
		fmt.Fprintf(r.w, "    -> %v\n", got)
	}
	wantClass, wantOK := spec.Class(want)
	switch {
	case !ok || !wantOK || class != wantClass:
		return fmt.Errorf("system answers %v, model %v", got, want)
	case got == nil && b != wantB:
		return fmt.Errorf("system reads %d, model %d", b, wantB)
	}
	return nil
}

// skip observes an op the system does not carry; the model skips it too.
func (r *replayer) skip() error {
	r.log = append(r.log, observation{r.lineNo, mm.ErrNotSupported})
	if r.verbose {
		fmt.Fprintf(r.w, "    -> skipped: %v\n", mm.ErrNotSupported)
	}
	return nil
}

// fits refuses, as a trace error, an op that would leave more than
// maxLive pages live by growing a region of old bytes to size bytes.
func (r *replayer) fits(size, old uint64) error {
	if n, err := cpusim.PageLength(size, arch.PageSize); err == nil && n > old &&
		uint64(r.model.Len())+(n-old)/arch.PageSize > maxLive {
		return badTrace("%d bytes would leave more than %d pages live", size, maxLive)
	}
	return nil
}

// step executes one trace line; blank lines and comments return nil.
func (r *replayer) step(line string) error {
	line = strings.TrimSpace(line)
	if line == "" || strings.HasPrefix(line, "#") {
		return nil
	}
	f := strings.Fields(line)
	op := f[0]
	arg := func(i int) string {
		if i < len(f) {
			return f[i]
		}
		return ""
	}
	num := func(i int) (uint64, error) {
		n, err := strconv.ParseUint(arg(i), 10, 64)
		if err != nil {
			return 0, badTrace("%v", err)
		}
		return n, nil
	}
	var reg region
	if slices.Contains([]string{"munmap", "touch", "store", "load", "protect", "madvise", "swapout", "mremap"}, op) {
		var ok bool
		if reg, ok = r.regions[arg(1)]; !ok {
			return badTrace("unknown region %q", arg(1))
		}
	}
	if r.verbose {
		fmt.Fprintf(r.w, "  [core %d] %s\n", r.core, line)
	}
	switch op {
	case "thread":
		n, err := num(1)
		if err != nil {
			return err
		}
		r.core = int(n)
		return nil
	case "mmap":
		size, err := num(2)
		if err != nil {
			return err
		}
		perm := arch.PermRW
		if arg(3) != "" {
			if perm, err = parsePerm(arg(3)); err != nil {
				return err
			}
		}
		var fl mm.Flags
		switch arg(4) {
		case "":
		case "populate":
			fl = mm.FlagPopulate
		default:
			return badTrace("bad mmap flag %q", arg(4))
		}
		if err := r.fits(size, 0); err != nil {
			return err
		}
		va, err := r.sys.Mmap(r.core, size, perm, fl)
		if err := r.judge(err, r.model.Mmap(r.core, va, size, perm), 0, 0); err != nil {
			return err
		}
		maps.DeleteFunc(r.regions, func(_ string, reg region) bool { return reg.hole })
		if err == nil {
			size, _ = cpusim.PageLength(size, arch.PageSize)
			r.regions[arg(1)] = region{va: va, size: size}
		}
		return nil
	case "munmap":
		err := r.sys.Munmap(r.core, reg.va, reg.size)
		if err := r.judge(err, r.model.Munmap(r.core, reg.va, reg.size), 0, 0); err != nil {
			return err
		}
		if err == nil {
			reg.hole = true
			r.regions[arg(1)] = reg
		}
		return nil
	case "touch", "store", "load":
		off, err := num(2)
		if err != nil {
			return err
		}
		if off >= reg.size/arch.PageSize {
			return badTrace("page offset %d beyond region", off)
		}
		addr := reg.va + arch.Vaddr(off*arch.PageSize)
		switch op {
		case "store":
			b, err := num(3)
			if err != nil {
				return err
			}
			return r.judge(r.sys.Store(r.core, addr, byte(b)), r.model.Store(r.core, addr, byte(b)), 0, 0)
		case "load":
			b, err := r.sys.Load(r.core, addr)
			wantB, want := r.model.Load(r.core, addr)
			return r.judge(err, want, b, wantB)
		default:
			acc := pt.AccessRead
			switch arg(3) {
			case "w":
				acc = pt.AccessWrite
			case "x":
				acc = pt.AccessExec
			}
			return r.judge(r.sys.Touch(r.core, addr, acc), r.model.Touch(r.core, addr, acc), 0, 0)
		}
	case "protect":
		perm, err := parsePerm(arg(2))
		if err != nil {
			return err
		}
		return r.judge(r.sys.Mprotect(r.core, reg.va, reg.size, perm), r.model.Mprotect(r.core, reg.va, reg.size, perm), 0, 0)
	case "madvise":
		adv, ok := r.sys.(mm.Madviser)
		if !ok {
			return r.skip()
		}
		return r.judge(adv.MadviseDontNeed(r.core, reg.va, reg.size), r.model.Madvise(r.core, reg.va, reg.size), 0, 0)
	case "swapout":
		sw, ok := r.sys.(mm.Swapper)
		if !ok {
			return r.skip()
		}
		_, err := sw.SwapOut(r.core, reg.va, reg.size)
		return r.judge(err, r.model.SwapOut(r.core, reg.va, reg.size), 0, 0)
	case "mremap":
		newSize, err := num(2)
		if err != nil {
			return err
		}
		rm, ok := r.sys.(mm.Remapper)
		if !ok {
			return r.skip()
		}
		if err := r.fits(newSize, reg.size); err != nil {
			return err
		}
		nva, err := rm.Mremap(r.core, reg.va, reg.size, newSize)
		if err := r.judge(err, r.model.Mremap(r.core, reg.va, reg.size, newSize, nva), 0, 0); err != nil {
			return err
		}
		if err == nil {
			newSize, _ = cpusim.PageLength(newSize, arch.PageSize)
			r.regions[arg(1)] = region{va: nva, size: newSize}
		}
		return nil
	}
	return badTrace("unknown op %q", op)
}

// run replays trace on a fresh space of sysName and on the flat model,
// quiescing the machine after every op so that a stale translation LATR
// may still hold is gone before the next. After the last line it judges
// every live page and every page of a name's range: its byte, or that it
// faults, and whether it is writable. It returns the observation log and
// the first disagreement with the model, a trace error, or what the
// teardown check finds.
func run(sysName string, cores int, trace io.Reader, verbose bool, w io.Writer) (log []observation, err error) {
	env, err := bench.NewEnv(bench.System(sysName), nil, cpusim.Config{Cores: cores, Frames: frames, NUMANodes: 2})
	if err != nil {
		return nil, err
	}
	// A replay that leaves frames behind after teardown is a finding,
	// whatever stopped it.
	defer func() {
		if cerr := env.Close(); cerr != nil && err != nil {
			err = fmt.Errorf("%v; at teardown: %w", err, cerr)
		} else if cerr != nil {
			err = fmt.Errorf("at teardown: %w", cerr)
		}
	}()
	// The summary line reports kernel time, so time the whole replay.
	defer env.Sys.Stats().TimeKernel()()

	r := &replayer{sys: env.Sys, model: spec.NewFlat(env.Machine.Cores), regions: map[string]region{}, verbose: verbose, w: w}
	sc := bufio.NewScanner(trace)
	for sc.Scan() {
		r.lineNo++
		if err := r.step(sc.Text()); err != nil {
			return r.log, fmt.Errorf("line %d (%s): %w", r.lineNo, strings.TrimSpace(sc.Text()), err)
		}
		env.Machine.Quiesce()
	}
	if err := sc.Err(); err != nil {
		return r.log, err
	}
	// The summary counts the trace's own ops, not the judge's reads.
	st := env.Sys.Stats().Snapshot()
	pages := r.model.Live()
	for _, reg := range r.regions {
		for va := reg.va; va < reg.va+arch.Vaddr(reg.size); va += arch.PageSize {
			if _, live := r.model.Page(va); !live {
				pages = append(pages, va)
			}
		}
	}
	slices.Sort(pages)
	for _, va := range slices.Compact(pages) {
		b, err := env.Sys.Load(0, va)
		wantB, want := r.model.Load(0, va)
		if err := cmp.Or(r.judge(err, want, b, wantB),
			r.judge(env.Sys.Touch(0, va, pt.AccessWrite), r.model.Touch(0, va, pt.AccessWrite), 0, 0)); err != nil {
			return r.log, fmt.Errorf("after the last line, page %#x: %w", va, err)
		}
	}
	fmt.Fprintf(w, "%s: mmap=%d munmap=%d mprotect=%d faults=%d (soft=%d cow=%d) swap(in=%d out=%d) kernel=%.2fms\n",
		sysName, st.Mmaps, st.Munmaps, st.Mprotects, st.PageFaults, st.SoftFaults,
		st.COWBreaks, st.SwapIns, st.SwapOuts, float64(st.KernelNanos)/1e6)
	return r.log, nil
}

func main() {
	sysName := flag.String("sys", "corten-adv", "system: linux, corten-rw, corten-adv, radixvm, nros")
	cores := flag.Int("cores", 4, "simulated cores")
	verbose := flag.Bool("v", false, "echo each op")
	demo := flag.Bool("demo", false, "replay the built-in demo trace")
	flag.Parse()

	var trace io.Reader
	switch {
	case *demo:
		trace = strings.NewReader(demoTrace)
	case flag.NArg() == 1:
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "mmreplay:", err)
			os.Exit(1)
		}
		defer f.Close()
		trace = f
	default:
		fmt.Fprintln(os.Stderr, "usage: mmreplay [-sys name] trace.mmt | mmreplay -demo")
		os.Exit(2)
	}
	if _, err := run(*sysName, *cores, trace, *verbose, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mmreplay:", err)
		os.Exit(1)
	}
}
