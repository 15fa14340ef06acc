package tree

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
)

// fusedOp matches a fused multiply-add in an arm64 assembly listing line,
// with the source position the compiler attributes it to.
var fusedOp = regexp.MustCompile(`\(([^()\s]+\.go):(\d+)\)\s+(FN?M(?:ADD|SUB)[DS])\s`)

// fmaFree lists the packages whose float results must not depend on the
// host: the trees (splits, scores, attribution), the graph features
// (PageRank, label propagation), the retention campaign's economics, the
// factorization machine (the F9 pair ranking and the LIBFM scores), the
// logistic regression (the LIBLINEAR scores), the metrics every
// experiment reports (AUC, PR-AUC, bootstrap intervals), the dataset's
// split and standardization, the simulator every experiment and benchmark
// draws its data from, the topic models (F7, F8), the frame build, the
// pipeline and its artifact, serving, the insight and root-cause reports,
// the experiments themselves and the load generator's event bodies.
var fmaFree = []string{
	"telcochurn/internal/tree", "telcochurn/internal/graph", "telcochurn/internal/retention",
	"telcochurn/internal/fm", "telcochurn/internal/linear", "telcochurn/internal/eval",
	"telcochurn/internal/dataset", "telcochurn/internal/synth", "telcochurn/internal/topic",
	"telcochurn/internal/features", "telcochurn/internal/core", "telcochurn/internal/serve",
	"telcochurn/internal/insight", "telcochurn/internal/rootcause", "telcochurn/internal/experiments",
	"telcochurn/cmd/churnload",
}

// TestNoFusedMultiplyAdd cross-compiles the fmaFree packages for arm64 and
// fails on any fused multiply-add the compiler emits. A fused x*y+z rounds
// once where amd64 rounds the product and the sum apart, so a host that
// fuses would pick other splits and compute other bits; every such site
// carries an explicit float64(...) conversion, which forbids the fusion.
// arm64 fuses every site that ppc64le and s390x do. On 2 vCPU a cold build
// cache costs about 21 s (the packages and their dependencies for arm64); a
// warm one replays the listing in about 1 s.
func TestNoFusedMultiplyAdd(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("the go tool is needed to list arm64 assembly: %v", err)
	}
	args := []string{"build", "-o", os.DevNull}
	for _, pkg := range fmaFree {
		args = append(args, "-gcflags="+pkg+"=-S")
	}
	cmd := exec.Command(goTool, append(args, fmaFree...)...)
	cmd.Env = append(os.Environ(), "GOARCH=arm64", "CGO_ENABLED=0")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("arm64 build: %v\n%s", err, out)
	}
	sites := map[string]bool{}
	for _, m := range fusedOp.FindAllSubmatch(out, -1) {
		site := fmt.Sprintf("%s:%s %s", filepath.Base(string(m[1])), m[2], m[3])
		if !sites[site] {
			sites[site] = true
			t.Errorf("fused multiply-add at %s: round the product with float64(...)", site)
		}
	}
	for _, pkg := range fmaFree {
		if !bytes.Contains(out, []byte("# "+pkg+"\n")) {
			t.Errorf("arm64 build printed no assembly listing for %s", pkg)
		}
	}
}
