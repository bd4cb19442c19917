package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestExportedNamesHaveCallers holds every exported function and method
// declared in a non-test file outside bench/ to a reference by name
// from some non-test file, its own declaration aside; files under bench/
// and examples/ count as callers. An exported name only tests reach
// belongs in an export_test.go file, or nowhere. The match is by name
// alone, so a reference to any same-named function, method or interface
// method counts. Error, Unwrap and String satisfy standard interfaces
// and are exempt.
func TestExportedNamesHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	type decl struct {
		name string
		pos  token.Pos
	}
	var decls []decl
	refs := make(map[string]bool)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		declared := make(map[*ast.Ident]bool)
		for _, fd := range f.Decls {
			fd, ok := fd.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fd.Name] = true
			if fd.Name.IsExported() && !strings.HasPrefix(path, "bench"+string(filepath.Separator)) {
				decls = append(decls, decl{fd.Name.Name, fd.Name.Pos()})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				refs[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("found no exported declarations")
	}
	var unused []string
	for _, d := range decls {
		switch d.name {
		case "Error", "Unwrap", "String":
			continue
		}
		if !refs[d.name] {
			unused = append(unused, fset.Position(d.pos).String()+": "+d.name)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Error(u, "has no caller outside tests")
	}
}
