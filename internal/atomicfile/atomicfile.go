// Package atomicfile replaces files so that a crash, including a power
// loss, leaves either the old contents or the complete new ones.
package atomicfile

import (
	"os"
	"path/filepath"
)

// WriteFile replaces path with data: it writes path+".tmp", fsyncs and
// closes it, renames it over path, and fsyncs the directory so the rename
// itself is durable. Until the rename the old file stays in place; when any
// step fails the temp file is removed and the error returned.
func WriteFile(path string, data []byte, perm os.FileMode) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, perm)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		_ = os.Remove(tmp) // best-effort cleanup; err is what the caller needs
		return err
	}
	SyncDir(filepath.Dir(path))
	return nil
}

// SyncDir fsyncs a directory so a rename inside it is durable; best-effort
// (some filesystems refuse directory fsyncs).
func SyncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}
