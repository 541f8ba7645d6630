package core

import (
	"bytes"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the state goldens under testdata/")

// TestStateGolden pins every registered strategy's ExportState record byte
// for byte: the goldens were generated before the codecs moved onto the
// shared header and wear table, so a record drifting from its file is a wire
// format (or decision order) change, not a refactor. Importing the golden
// bytes into a fresh instance must then continue exactly like the instance
// that produced them.
func TestStateGolden(t *testing.T) {
	for _, spec := range LevelerSpecs() {
		t.Run(spec.Name, func(t *testing.T) {
			orig, _ := buildModule(t, spec, 11)
			drive(t, orig, 0, 2500)
			got := orig.ExportState()

			path := filepath.Join("testdata", "state_"+spec.Name+".hex")
			if *update {
				if err := os.WriteFile(path, []byte(hex.EncodeToString(got)+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			text, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run `go test ./internal/core -run StateGolden -update` to create it)", err)
			}
			want, err := hex.DecodeString(strings.TrimSpace(string(text)))
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s state record drifted from %s:\ngot  %x\nwant %x", spec.Name, path, got, want)
			}

			restored, _ := buildModule(t, spec, 999) // seed overwritten by import where serialized
			if err := restored.ImportState(want); err != nil {
				t.Fatalf("ImportState(golden): %v", err)
			}
			drive(t, orig, 2500, 5000)
			drive(t, restored, 2500, 5000)
			if !bytes.Equal(orig.ExportState(), restored.ExportState()) {
				t.Error("instance restored from the golden diverged from the original")
			}
		})
	}
}
