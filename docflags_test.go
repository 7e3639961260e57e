package jets

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docTools are the binaries whose command lines the docs quote; each
// defines its flags in cmd/<tool>.
var docTools = []string{"jets", "jets-worker", "swiftrun", "jets-bench"}

var (
	// docSpan matches an inline code span.
	docSpan = regexp.MustCompile("`([^`\n]+)`")
	// flagDef matches a flag definition: flag.<Type>("name" or flag.Var(x, "name".
	flagDef = regexp.MustCompile(`flag\.(?:[A-Z]\w*\(|Var\([^,]+,\s*)"([^"]+)"`)
	// docFlag matches a flag token in a quoted command line.
	docFlag = regexp.MustCompile(`^--?([A-Za-z][\w-]*)`)
)

// TestDocFlagsExist: every flag a doc quotes in a `jets …`, `jets-worker …`,
// `swiftrun …` or `jets-bench …` span is defined by that tool, so a removed
// flag cannot live on in the docs as if it still worked.
func TestDocFlagsExist(t *testing.T) {
	defined := map[string]map[string]bool{}
	for _, tool := range docTools {
		defined[tool] = map[string]bool{}
		files, err := filepath.Glob(filepath.Join("cmd", tool, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("cmd/%s: no sources (%v)", tool, err)
		}
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range flagDef.FindAllStringSubmatch(string(src), -1) {
				defined[tool][m[1]] = true
			}
		}
	}
	checked := 0
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for ln, line := range strings.Split(string(text), "\n") {
			for _, m := range docSpan.FindAllStringSubmatch(line, -1) {
				words := strings.Fields(m[1])
				if len(words) < 2 {
					continue
				}
				flags, ok := defined[words[0]]
				if !ok {
					continue
				}
				for _, w := range words[1:] {
					f := docFlag.FindStringSubmatch(w)
					if f == nil {
						continue
					}
					checked++
					if !flags[f[1]] {
						t.Errorf("%s:%d: `%s` names -%s, which %s does not define", doc, ln+1, m[1], f[1], words[0])
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no flag mentions found: the scan is broken")
	}
	t.Logf("%d flag mentions checked", checked)
}
