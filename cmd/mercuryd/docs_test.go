package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// flagSpan matches a flag's code span in a table cell: `-kill-after`.
var flagSpan = regexp.MustCompile("`-([a-z][a-z0-9-]*)`")

// TestDocsMercurydFlags checks that OPERATIONS.md's flag table names exactly
// the flags main.go defines: a new flag must be documented, and a deleted
// one must not linger in the docs.
func TestDocsMercurydFlags(t *testing.T) {
	defined := definedFlags(t)
	documented := documentedFlags(t)
	if len(defined) == 0 || len(documented) == 0 {
		t.Fatalf("defined %v, documented %v: the check is vacuous", defined, documented)
	}
	for name := range defined {
		if !documented[name] {
			t.Errorf("flag -%s is defined in main.go but not in OPERATIONS.md's flag table", name)
		}
	}
	for name := range documented {
		if !defined[name] {
			t.Errorf("OPERATIONS.md's flag table names -%s, which main.go does not define", name)
		}
	}
}

// definedFlags returns the name of every flag main.go defines: the first
// argument of a flag.X("name", …) call, the second of a flag.XVar(&v,
// "name", …) one.
func definedFlags(t *testing.T) map[string]bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
			return true
		}
		arg := 0
		if strings.HasSuffix(sel.Sel.Name, "Var") {
			arg = 1
		}
		if arg >= len(call.Args) {
			return true
		}
		if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if name, err := strconv.Unquote(lit.Value); err == nil {
				names[name] = true
			}
		}
		return true
	})
	return names
}

// documentedFlags returns the flags named in the first column of the table
// under OPERATIONS.md's "| Flag |" header.
func documentedFlags(t *testing.T) map[string]bool {
	t.Helper()
	ops, err := os.ReadFile(filepath.Join("..", "..", "OPERATIONS.md"))
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	inTable := false
	for _, line := range strings.Split(string(ops), "\n") {
		switch {
		case strings.HasPrefix(line, "| Flag |"):
			inTable = true
		case inTable && !strings.HasPrefix(line, "|"):
			return names
		case inTable:
			cells := strings.Split(line, "|")
			for _, m := range flagSpan.FindAllStringSubmatch(cells[1], -1) {
				names[m[1]] = true
			}
		}
	}
	if inTable {
		return names
	}
	t.Fatal(`OPERATIONS.md has no "| Flag |" table`)
	return nil
}
