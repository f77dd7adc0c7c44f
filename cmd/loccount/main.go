// Command loccount is the Table-5 analog: it counts the lines of code
// needed to support each ISA / MMU feature in this reproduction, showing
// that porting the single-level design is one table of PTE bit masks
// (its layout constants and one Codec value, one file per ISA) read by a
// shared codec — no software-level abstraction to adapt.
//
// Usage:
//
//	loccount [-root .]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// countLoC counts non-blank, non-comment-only lines of a Go file.
func countLoC(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "//") {
			continue
		}
		n++
	}
	return n, sc.Err()
}

// countMatching sums LoC of files under dir whose name passes keep.
func countMatching(dir string, keep func(name string) bool) (int, []string, error) {
	total := 0
	var files []string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		if !keep(filepath.Base(path)) {
			return nil
		}
		n, err := countLoC(path)
		if err != nil {
			return err
		}
		total += n
		files = append(files, fmt.Sprintf("%s (%d)", path, n))
		return nil
	})
	return total, files, err
}

// countFeature counts lines in arch files that mention any of a
// feature's tokens, each line once (the MPK case: the feature is the
// key fields of x8664.go's second table and the codec's key methods).
func countFeature(dir string, tokens ...string) (int, error) {
	total := 0
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, oerr := os.Open(path)
		if oerr != nil {
			return oerr
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "//") {
				continue
			}
			for _, tok := range tokens {
				if strings.Contains(strings.ToLower(line), tok) {
					total++
					break
				}
			}
		}
		return sc.Err()
	})
	return total, err
}

// countRepo counts the non-test Go of every package directory under
// root except the benchmark/ module.
func countRepo(root string) (map[string]int, error) {
	perDir := map[string]int{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel == "benchmark" || (rel != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		n, err := countLoC(path)
		perDir[filepath.Dir(rel)] += n
		return err
	})
	return perDir, err
}

func main() {
	root := flag.String("root", ".", "repository root")
	verbose := flag.Bool("v", false, "list counted files")
	flag.Parse()

	archDir := filepath.Join(*root, "internal", "arch")

	fmt.Println("# Table 5 analog: lines of code per ISA / MMU feature (a port is one bit table)")
	fmt.Println("# (paper: RISC-V 252 LoC, Intel MPK 82 LoC for CortenMM; Linux needs 699/273)")

	riscv, files, err := countMatching(archDir, func(name string) bool { return strings.Contains(name, "riscv") })
	if err != nil {
		fmt.Fprintln(os.Stderr, "loccount:", err)
		os.Exit(1)
	}
	fmt.Printf("RISC-V support:    %4d LoC (internal/arch/riscv.go — layout constants and its table)\n", riscv)
	if *verbose {
		for _, f := range files {
			fmt.Println("   ", f)
		}
	}

	arm, files2, err := countMatching(archDir, func(name string) bool { return strings.Contains(name, "arm64") })
	if err != nil {
		fmt.Fprintln(os.Stderr, "loccount:", err)
		os.Exit(1)
	}
	fmt.Printf("ARM64 support:     %4d LoC (internal/arch/arm64.go — layout constants and its table)\n", arm)
	if *verbose {
		for _, f := range files2 {
			fmt.Println("   ", f)
		}
	}

	mpk, err := countFeature(archDir, "pkey", "mpk", "keyshift", "keymask")
	if err != nil {
		fmt.Fprintln(os.Stderr, "loccount:", err)
		os.Exit(1)
	}
	fmt.Printf("Intel MPK support: %4d LoC (key-handling lines in internal/arch)\n", mpk)

	x86, _, err := countMatching(archDir, func(name string) bool { return strings.Contains(name, "x8664") })
	if err != nil {
		fmt.Fprintln(os.Stderr, "loccount:", err)
		os.Exit(1)
	}
	common, _, err := countMatching(archDir, func(name string) bool { return name == "arch.go" || name == "codec.go" })
	if err != nil {
		fmt.Fprintln(os.Stderr, "loccount:", err)
		os.Exit(1)
	}
	fmt.Printf("x86-64 support:    %4d LoC (internal/arch/x8664.go — layout constants and its two tables)\n", x86)
	fmt.Printf("ISA-independent:   %4d LoC (internal/arch/arch.go, codec.go — shared geometry + the one codec)\n", common)
	fmt.Println("# Everything outside internal/arch is ISA-independent: the memory")
	fmt.Println("# manager itself needs zero changes per ISA (§6.7).")

	perDir, err := countRepo(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loccount:", err)
		os.Exit(1)
	}
	dirs := make([]string, 0, len(perDir))
	total := 0
	for dir, n := range perDir {
		dirs = append(dirs, dir)
		total += n
	}
	sort.Strings(dirs)
	fmt.Printf("Non-test Go outside benchmark/: %5d LoC\n", total)
	for _, dir := range dirs {
		fmt.Printf("  %-20s %5d\n", dir, perDir[dir])
	}
}
