package jqos_test

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden from this tree's output")

// nondeterministicExample runs on real sockets and wall-clock time, so it
// has no golden; every other directory under examples/ has one.
const nondeterministicExample = "livewire"

var (
	// jqos-figures prints each experiment's wall time on a line of its own.
	figureWallTime = regexp.MustCompile(`(?m)^  \(\d+\.\ds\)\n`)
	// jqos-chaos prints the soak's wall time inside its summary line.
	chaosWallTime = regexp.MustCompile(` in [0-9.]+(ns|µs|ms|s|m[0-9.]+s):`)
)

// TestGolden runs what a user runs — the examples, `jqos-figures -quick
// -seed 42` and `jqos-chaos -runs 10 -seed 1 -v` — and fails on any byte
// that differs from testdata/golden. The simulation is deterministic for a
// seed, so a difference means the change moved something the simulator
// sees: a node ID, an RNG draw, the order of two same-instant events. Fig 10
// is left out because it measures wall-clock throughput. Regenerate with
//
//	go test -run TestGolden -update .
//
// and say in the PR which outputs moved and why.
func TestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs every example and CLI")
	}
	dirs, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	var examples []string
	for _, dir := range dirs {
		if dir.IsDir() && dir.Name() != nondeterministicExample {
			examples = append(examples, dir.Name())
		}
	}
	bin := t.TempDir()
	pkgs := []string{"./cmd/jqos-figures", "./cmd/jqos-chaos"}
	for _, ex := range examples {
		pkgs = append(pkgs, "./examples/"+ex)
	}
	if out, err := exec.Command("go", append([]string{"build", "-o", bin + "/"}, pkgs...)...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	run := func(t *testing.T, name string, args ...string) []byte {
		t.Helper()
		cmd := exec.Command(filepath.Join(bin, name), args...)
		cmd.Dir = bin
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("%s %s: %v\n%s", name, strings.Join(args, " "), err, stderr.Bytes())
		}
		return out
	}

	for _, ex := range examples {
		t.Run("examples/"+ex, func(t *testing.T) {
			checkGolden(t, filepath.Join("examples", ex+".txt"), run(t, ex))
		})
	}
	// A golden whose example is gone would otherwise pass unnoticed.
	goldens, _ := filepath.Glob(filepath.Join("testdata", "golden", "examples", "*"))
	for _, path := range goldens {
		if name := strings.TrimSuffix(filepath.Base(path), ".txt"); slices.Contains(examples, name) {
			continue
		}
		if *updateGolden {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
			continue
		}
		t.Errorf("%s has no example under examples/", path)
	}

	t.Run("figures", func(t *testing.T) {
		var ids []string
		for _, line := range strings.Split(strings.TrimSpace(string(run(t, "jqos-figures", "-list"))), "\n") {
			if id := strings.Fields(line)[0]; id != "10" {
				ids = append(ids, id)
			}
		}
		out := run(t, "jqos-figures", "-fig", strings.Join(ids, ","), "-quick", "-seed", "42", "-out", "csv")
		if *updateGolden { // a figure that no longer exists must not leave its CSV behind
			if err := os.RemoveAll(filepath.Join("testdata", "golden", "figures")); err != nil {
				t.Fatal(err)
			}
		}
		checkGolden(t, filepath.Join("figures", "stdout.txt"), figureWallTime.ReplaceAll(out, nil))

		got, err := filepath.Glob(filepath.Join(bin, "csv", "*.csv"))
		if err != nil || len(got) == 0 {
			t.Fatalf("no CSVs written: %v", err)
		}
		var names []string
		for _, path := range got {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			names = append(names, filepath.Base(path))
			checkGolden(t, filepath.Join("figures", filepath.Base(path)), data)
		}
		want, _ := filepath.Glob(filepath.Join("testdata", "golden", "figures", "*.csv"))
		for i := range want {
			want[i] = filepath.Base(want[i])
		}
		sort.Strings(names)
		sort.Strings(want)
		if strings.Join(names, " ") != strings.Join(want, " ") {
			t.Errorf("CSV set changed:\n got %v\nwant %v", names, want)
		}
	})

	t.Run("chaos", func(t *testing.T) {
		out := run(t, "jqos-chaos", "-runs", "10", "-seed", "1", "-v")
		checkGolden(t, "chaos.txt", chaosWallTime.ReplaceAll(out, []byte(":")))
	})
}

func checkGolden(t *testing.T, rel string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", rel)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -run TestGolden -update .` at a commit whose output is known good)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("%s differs from the golden at line %d:\n got %q\nwant %q", rel, i+1, g, w)
			return
		}
	}
}
