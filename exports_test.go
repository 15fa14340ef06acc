package telcochurn

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exportAllowlist names the exported functions and methods (or a whole
// package) that production code outside bench/ may leave unused, with the
// reason; "item n" is the ROADMAP item that removes the entry. It may only
// shrink: an entry that production code uses, or that names nothing, fails.
var exportAllowlist = map[string]string{
	"core.AsSharded": benchOnly, "core.NewIncremental": benchOnly, "features.BuildCallGraph": benchOnly,
	"features.Frame.AddColumn": benchOnly, "tree.Forest.Compile": benchOnly, "serve.NewCache": benchOnly,
	"serve.NewFallbackProvider": benchOnly, "table.GroupBy": benchOnly, "table.HashJoin": benchOnly,
	"table.SortByInt": benchOnly, "serve.Cache.Purge": "item 1: on the cache only bench/ builds",
	"eval.BootstrapCI": bootstrap, "eval.CI.Width": bootstrap,
	"faults":                       "test support: the fault injectors only tests import",
	"store.Warehouse.SetHook":      "test seam: crash and fault hooks on partition writes",
	"store.Warehouse.HasPartition": "test seam: what a crashed write left behind",
	"table.Table.AppendRow":        "test seam: fixture rows built by hand",
}

const benchOnly, bootstrap = "item 1: only bench/ calls it", "item 8.2: the experiments' confidence intervals"

// stdlibDispatched are method names the standard library calls through its
// own interfaces, so no selector in this module needs to name them.
var stdlibDispatched = map[string]bool{"Error": true, "String": true, "Unwrap": true, "UnmarshalJSON": true}

// TestNoTestOnlyExports fails on every exported top-level function or method
// in non-test Go outside bench/ (its own module, read for reporting only)
// that no such code uses. Functions resolve through each file's imports and
// unqualified same-package uses, a body's use of itself aside; a method is
// used when any production selector has its name, so interface dispatch
// never fails the gate.
func TestNoTestOnlyExports(t *testing.T) {
	const production, test, bench = 1, 2, 4 // bits of used[key] (a function) and used["."+name] (a method)
	fset, decls, used := token.NewFileSet(), map[string]*ast.FuncDecl{}, map[string]int{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && p != "." && (d.Name()[0] == '.' || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if err != nil || !strings.HasSuffix(p, ".go") {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		pkg, by, imports := path.Base("telcochurn/"+dir), production, map[string]string{}
		if dir == "bench" || strings.HasPrefix(dir, "bench/") {
			by = bench
		} else if strings.HasSuffix(p, "_test.go") {
			by = test
		}
		for _, im := range f.Imports {
			ip, _ := strconv.Unquote(im.Path.Value)
			name := path.Base(ip)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = path.Base(ip)
		}
		for _, d := range f.Decls {
			self, name := "", (*ast.Ident)(nil) // a declared name is not a use, nor its body's own use
			if fd, ok := d.(*ast.FuncDecl); ok {
				if self, name = declKey(pkg, fd), fd.Name; by == production && name.IsExported() {
					decls[self] = fd
				}
				if fd.Recv != nil {
					self = "." + name.Name
				}
			}
			mark := func(key string) {
				if key != self {
					used[key] |= by
				}
			}
			ast.Inspect(d, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
						mark(imports[x.Name] + "." + n.Sel.Name)
						return false
					}
					mark("." + n.Sel.Name)
				case *ast.Ident:
					if n != name {
						mark(pkg + "." + n.Name)
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	fails, pkgs := []string(nil), map[string]bool{}
	for key, fd := range decls {
		pkg, ref := key[:strings.Index(key, ".")], key
		if pkgs[pkg] = true; fd.Recv != nil {
			ref = "." + fd.Name.Name
		}
		if exportAllowlist[pkg] != "" || fd.Recv != nil && stdlibDispatched[fd.Name.Name] {
			continue
		}
		if by, allowed := used[ref], exportAllowlist[key] != ""; by&production != 0 && allowed {
			fails = append(fails, key+" is in the allowlist, but production code uses it: delete the entry")
		} else if by&production == 0 && !allowed {
			fails = append(fails, fmt.Sprintf("%s: %s is exported, but no production code uses it (tests: %t, bench: %t)",
				fset.Position(fd.Pos()), key, by&test != 0, by&bench != 0))
		}
	}
	for key := range exportAllowlist {
		if decls[key] == nil && !pkgs[key] {
			fails = append(fails, key+" is in the allowlist, but nothing declares it: delete the entry")
		}
	}
	if sort.Strings(fails); len(fails) > 0 {
		t.Error(strings.Join(fails, "\n"))
	}
}

// declKey names a function pkg.Name and a method pkg.Type.Name.
func declKey(pkg string, fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return pkg + "." + fd.Name.Name
	}
	var typ string // the first identifier of *T, T, T[P] or T[P, Q]
	ast.Inspect(fd.Recv.List[0].Type, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && typ == "" {
			typ = id.Name
		}
		return typ == ""
	})
	return pkg + "." + typ + "." + fd.Name.Name
}
