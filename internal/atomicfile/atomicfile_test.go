package atomicfile

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func TestWriteFileReplaces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.bin")
	for _, data := range [][]byte{[]byte("first"), []byte("second, longer")} {
		if err := WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("read %q, want %q", got, data)
		}
		if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
			t.Fatalf("temp file left behind: %v", err)
		}
	}
}

// TestWriteFileFailedRename makes the final rename fail (the target is a
// non-empty directory): the target must be untouched and the temp file gone.
func TestWriteFileFailedRename(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.bin")
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	old := filepath.Join(path, "old")
	if err := os.WriteFile(old, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, []byte("new"), 0o644); err == nil {
		t.Fatal("rename over a non-empty directory succeeded")
	}
	if got, err := os.ReadFile(old); err != nil || string(got) != "old" {
		t.Fatalf("old contents after a failed rename: %q, %v", got, err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
}
