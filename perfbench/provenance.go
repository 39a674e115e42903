package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// printProvenance prints what the numbers were measured on: the source,
// the toolchain, the machine and the inputs.
func printProvenance(workload string, seed int64, seconds, trace int) {
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%d trace=%d\n", workload, seed, seconds, trace)
	fmt.Printf("# commit=%s source_sha256=%s\n", gitCommit(), sourceHash())
	fmt.Printf("# go=%s gomaxprocs=%d numcpu=%d cpu=%q\n", runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel())
}

// gitCommit is the checked-out commit, or "none" when the working
// directory is not the top of a git checkout.
func gitCommit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "none"
	}
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash digests every Go source and module file under the working
// directory, so runs of a checkout that is not a git repository can
// still be matched to their source.
func sourceHash() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", path)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
