package tree

import (
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

// TestNoFusedMultiplyAdd cross-compiles this package for arm64 and fails on
// any fused multiply-add the compiler emits. A fused x*y+z rounds once
// where amd64 rounds the product and the sum apart, so a host that fuses
// would pick other splits and score other bits; every such site carries an
// explicit float64(...) conversion, which forbids the fusion. arm64 fuses
// every site that ppc64le and s390x do. The build cache replays the
// listing, so a warm run costs about a build cache lookup.
func TestNoFusedMultiplyAdd(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("the go tool is needed to list arm64 assembly: %v", err)
	}
	cmd := exec.Command(goTool, "build", "-o", os.DevNull, "-gcflags=telcochurn/internal/tree=-S", "telcochurn/internal/tree")
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
	if len(out) == 0 {
		t.Fatal("arm64 build printed no assembly listing")
	}
}
