// Command mmreplay replays a memory-management syscall trace against
// any of the implemented systems and reports operation statistics —
// useful for comparing systems on recorded application behaviour.
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
// Region names bind the address returned by their mmap.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"cortenmm/internal/arch"
	"cortenmm/internal/bench"
	"cortenmm/internal/cpusim"
	"cortenmm/internal/mem"
	"cortenmm/internal/mm"
	"cortenmm/internal/pt"
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

type replayer struct {
	sys     mm.MM
	regions map[string]struct {
		va   arch.Vaddr
		size uint64
	}
	core    int
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
	return 0, fmt.Errorf("bad perm %q", s)
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
	num := func(i int) (uint64, error) { return strconv.ParseUint(arg(i), 10, 64) }
	region := func(i int) (arch.Vaddr, uint64, error) {
		reg, ok := r.regions[arg(i)]
		if !ok {
			return 0, 0, fmt.Errorf("unknown region %q", arg(i))
		}
		return reg.va, reg.size, nil
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
			return fmt.Errorf("bad mmap flag %q", arg(4))
		}
		va, err := r.sys.Mmap(r.core, size, perm, fl)
		if err != nil {
			return err
		}
		r.regions[arg(1)] = struct {
			va   arch.Vaddr
			size uint64
		}{va, (size + arch.PageSize - 1) &^ (arch.PageSize - 1)}
		return nil
	case "munmap":
		va, size, err := region(1)
		if err != nil {
			return err
		}
		delete(r.regions, arg(1))
		return r.sys.Munmap(r.core, va, size)
	case "touch", "store", "load":
		va, size, err := region(1)
		if err != nil {
			return err
		}
		off, err := num(2)
		if err != nil {
			return err
		}
		if off*arch.PageSize >= size {
			return fmt.Errorf("page offset %d beyond region", off)
		}
		addr := va + arch.Vaddr(off*arch.PageSize)
		switch op {
		case "store":
			b, err := num(3)
			if err != nil {
				return err
			}
			return r.sys.Store(r.core, addr, byte(b))
		case "load":
			_, err := r.sys.Load(r.core, addr)
			return err
		default:
			acc := pt.AccessRead
			switch arg(3) {
			case "w":
				acc = pt.AccessWrite
			case "x":
				acc = pt.AccessExec
			}
			return r.sys.Touch(r.core, addr, acc)
		}
	case "protect":
		va, size, err := region(1)
		if err != nil {
			return err
		}
		perm, err := parsePerm(arg(2))
		if err != nil {
			return err
		}
		return r.sys.Mprotect(r.core, va, size, perm)
	case "madvise":
		va, size, err := region(1)
		if err != nil {
			return err
		}
		adv, ok := r.sys.(mm.Madviser)
		if !ok {
			return fmt.Errorf("madvise: %w", mm.ErrNotSupported)
		}
		return adv.MadviseDontNeed(r.core, va, size)
	case "swapout":
		va, size, err := region(1)
		if err != nil {
			return err
		}
		sw, ok := r.sys.(mm.Swapper)
		if !ok {
			return fmt.Errorf("swapout: %w", mm.ErrNotSupported)
		}
		_, err = sw.SwapOut(r.core, va, size)
		return err
	case "mremap":
		va, size, err := region(1)
		if err != nil {
			return err
		}
		newSize, err := num(2)
		if err != nil {
			return err
		}
		rm, ok := r.sys.(mm.Remapper)
		if !ok {
			return fmt.Errorf("mremap: %w", mm.ErrNotSupported)
		}
		nva, err := rm.Mremap(r.core, va, size, newSize)
		if err != nil {
			return err
		}
		r.regions[arg(1)] = struct {
			va   arch.Vaddr
			size uint64
		}{nva, (newSize + arch.PageSize - 1) &^ (arch.PageSize - 1)}
		return nil
	}
	return fmt.Errorf("unknown op %q", op)
}

func run(sysName string, cores int, trace io.Reader, verbose bool, w io.Writer) (err error) {
	env, err := bench.NewEnv(bench.System(sysName), nil, cpusim.Config{Cores: cores, Frames: 1 << 17, NUMANodes: 2})
	if err != nil {
		return err
	}
	// A replay that leaves frames behind after teardown is a finding.
	defer func() { err = errors.Join(err, env.Close()) }()
	// CortenMM flavours get a swap device so swapout lines work.
	if cs, ok := env.Sys.(interface{ SetSwapDev(*mem.BlockDev) }); ok {
		cs.SetSwapDev(mem.NewBlockDev("swap0"))
	}
	// The summary line reports kernel time, so time the whole replay.
	defer env.Sys.Stats().TimeKernel()()

	r := &replayer{sys: env.Sys, verbose: verbose, w: w,
		regions: map[string]struct {
			va   arch.Vaddr
			size uint64
		}{}}
	sc := bufio.NewScanner(trace)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		if err := r.step(sc.Text()); err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	st := env.Sys.Stats().Snapshot()
	fmt.Fprintf(w, "%s: mmap=%d munmap=%d mprotect=%d faults=%d (soft=%d cow=%d) swap(in=%d out=%d) kernel=%.2fms\n",
		sysName, st.Mmaps, st.Munmaps, st.Mprotects, st.PageFaults, st.SoftFaults,
		st.COWBreaks, st.SwapIns, st.SwapOuts, float64(st.KernelNanos)/1e6)
	return nil
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
	if err := run(*sysName, *cores, trace, *verbose, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mmreplay:", err)
		os.Exit(1)
	}
}
