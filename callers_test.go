package repro

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestExportedNamesHaveCallers holds every exported function, method
// and interface method declared in a non-test file outside bench/ to a
// reference to that object from some non-test file; files under bench/,
// cmd/ and examples/ count as callers. A method also counts when it
// implements an interface method some non-test file calls. Every
// package is type-checked from source, so a reference to another
// type's method of the same name does not count. An exported name
// only tests reach belongs in an export_test.go file, or nowhere.
// Error, Unwrap and String satisfy standard interfaces and are exempt.
func TestExportedNamesHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	files := make(map[string][]*ast.File) // by import path
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ip := path.Join("repro", filepath.ToSlash(filepath.Dir(p)))
		files[ip] = append(files[ip], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	info := &types.Info{
		Defs: make(map[*ast.Ident]types.Object),
		Uses: make(map[*ast.Ident]types.Object),
	}
	std := importer.ForCompiler(fset, "source", nil)
	checked := make(map[string]*types.Package)
	var check func(ip string) (*types.Package, error)
	imp := importerFunc(func(ip string) (*types.Package, error) {
		if _, ok := files[ip]; ok {
			return check(ip)
		}
		return std.Import(ip)
	})
	check = func(ip string) (*types.Package, error) {
		if pkg, ok := checked[ip]; ok {
			return pkg, nil
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(ip, fset, files[ip], info)
		checked[ip] = pkg
		return pkg, err
	}
	for ip := range files {
		if _, err := check(ip); err != nil {
			t.Fatal(err)
		}
	}

	// Every object a non-test file names, its own declaration aside,
	// and the interface methods among them.
	used := make(map[types.Object]bool)
	var calledIface []*types.Func
	for _, obj := range info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		fn = fn.Origin()
		used[fn] = true
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			calledIface = append(calledIface, fn)
		}
	}
	// implementsCalled reports whether method fn implements an
	// interface method some non-test file calls. A value method is in
	// the pointer type's method set too, so the pointer type is tested.
	implementsCalled := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return false
		}
		t := recv.Type()
		if _, ok := t.(*types.Pointer); !ok {
			t = types.NewPointer(t)
		}
		for _, im := range calledIface {
			iface := im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
			if im.Name() == fn.Name() && types.Implements(t, iface) {
				return true
			}
		}
		return false
	}

	var unused []string
	declared := 0
	for ident, obj := range info.Defs {
		fn, ok := obj.(*types.Func)
		if !ok || !ident.IsExported() || strings.HasPrefix(fset.Position(ident.Pos()).Filename, "bench"+string(filepath.Separator)) {
			continue
		}
		declared++
		switch fn.Name() {
		case "Error", "Unwrap", "String":
			continue
		}
		if !used[fn] && !implementsCalled(fn) {
			unused = append(unused, fset.Position(ident.Pos()).String()+": "+fn.FullName())
		}
	}
	if declared == 0 {
		t.Fatal("found no exported declarations")
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Error(u, "has no caller outside tests")
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
