//go:build deadcode

package repro

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// deadcodeAllowed are the funcs no binary links that stay, each for its
// reason.
var deadcodeAllowed = map[string]string{
	"ops.WAVSource.Name":      "the paper's wav2rec source; implements pipeline.Source",
	"ops.WAVSource.Run":       "the paper's wav2rec source; implements pipeline.Source",
	"ops.DataFeed.Name":       "the paper's data feed; implements pipeline.Source",
	"ops.DataFeed.Run":        "the paper's data feed; implements pipeline.Source",
	"ops.NewReadout":          "the paper's readout operator",
	"ops.Readout.Name":        "the paper's readout; implements pipeline.Sink",
	"ops.Readout.Consume":     "the paper's readout; implements pipeline.Sink",
	"ops.Readout.Count":       "the paper's readout's one observation",
	"record.NewReader":        "what DataFeed decodes with",
	"record.NewWriter":        "what Readout encodes with",
	"dsp.WindowFunc.String":   "fmt.Stringer",
	"eval.Result.String":      "fmt.Stringer",
	"replica.Merger.Untagged": "shard's tests read it through Collector, from another package",
}

// deadcodeSkipped are internal packages that are test support, not
// program code: no binary is meant to link them whole.
var deadcodeSkipped = map[string]string{
	"rivertest": "the in-process cluster fixture of the river tests and examples; helpers only some tests call are expected",
}

// TestDeadCode builds every main under cmd/, examples/ and bench/ without
// inlining, lists the repro/internal symbols they link (go tool nm), and
// fails on any func or method a non-test internal/ file declares that no
// binary links and deadcodeAllowed does not name. Run it with
//
//	go test -tags deadcode -run DeadCode -count=1 .
func TestDeadCode(t *testing.T) {
	dir := t.TempDir()
	var mains []string
	out, err := exec.Command("go", "list", "-f", "{{if eq .Name \"main\"}}{{.Dir}}{{end}}", "./cmd/...", "./examples/...").Output()
	if err != nil {
		t.Fatal(err)
	}
	mains = append(strings.Fields(string(out)), "bench")
	linked := map[string]bool{}
	generic := regexp.MustCompile(`\[[^\]]*\]`)
	for i, m := range mains {
		bin := filepath.Join(dir, "bin"+strings.Repeat("x", i))
		build := exec.Command("go", "build", "-gcflags=all=-l", "-o", bin, ".")
		build.Dir = m
		if msg, err := build.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", m, err, msg)
		}
		nm, err := exec.Command("go", "tool", "nm", bin).Output()
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(bytes.NewReader(nm))
		for sc.Scan() {
			f := strings.Fields(sc.Text())
			if len(f) < 3 || !strings.HasPrefix(f[len(f)-1], "repro/internal/") {
				continue
			}
			sym := generic.ReplaceAllString(strings.TrimPrefix(f[len(f)-1], "repro/internal/"), "")
			linked[strings.NewReplacer("(*", "", ")", "").Replace(sym)] = true
		}
	}
	var dead []string
	err = filepath.WalkDir("internal", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		pkg := filepath.ToSlash(filepath.Dir(strings.TrimPrefix(path, "internal"+string(filepath.Separator))))
		if _, skip := deadcodeSkipped[strings.Split(pkg, "/")[0]]; skip {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "init" || fn.Name.Name == "main" {
				continue
			}
			name := pkg + "." + fn.Name.Name
			if fn.Recv != nil {
				typ := fn.Recv.List[0].Type
				if s, ok := typ.(*ast.StarExpr); ok {
					typ = s.X
				}
				if ix, ok := typ.(*ast.IndexExpr); ok {
					typ = ix.X
				}
				name = pkg + "." + typ.(*ast.Ident).Name + "." + fn.Name.Name
			}
			if !linked[name] && deadcodeAllowed[name] == "" {
				dead = append(dead, name+" ("+path+")")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(dead)
	for _, d := range dead {
		t.Errorf("no binary links %s", d)
	}
}
