package synth

import (
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"telcochurn/internal/store"
)

// goldenWorldDigest is FNV-64a over every file (relative path, then bytes,
// in lexical path order) of a 300-customer, 3-month, seed-1 world written
// once plain and once as 2 shards. It pins both the simulator and the
// warehouse encoding: a change to either that moves a single stored byte
// moves it.
const goldenWorldDigest = 0x3b19ae60e2aae2c2

func TestGenerateGoldenDigest(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Customers = 300
	cfg.Months = 3
	cfg.Seed = 1

	root := t.TempDir()
	plain, err := store.Open(filepath.Join(root, "plain"))
	if err != nil {
		t.Fatal(err)
	}
	if err := GenerateToWarehouse(cfg, plain); err != nil {
		t.Fatal(err)
	}
	wh, err := store.Open(filepath.Join(root, "sharded"))
	if err != nil {
		t.Fatal(err)
	}
	sw, err := wh.Sharded(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := GenerateToShardedWarehouse(cfg, sw); err != nil {
		t.Fatal(err)
	}

	h := fnv.New64a()
	files := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h.Write([]byte(filepath.ToSlash(rel)))
		h.Write([]byte{0})
		h.Write(data)
		files++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Sum64(); got != goldenWorldDigest {
		t.Fatalf("digest of %d generated files = %#x, want %#x", files, got, uint64(goldenWorldDigest))
	}
}
