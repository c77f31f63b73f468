// Package pfs implements NASD PFS, the paper's minimal parallel
// filesystem (Section 5.2): a simple UNIX-flavoured file interface
// extended with SIO-style parallel access, backed by Cheops striped
// objects. The filesystem manages names and access; file data lives in
// Cheops logical objects whose components are NASD objects, so large
// parallel requests fan out to drives directly from each client.
package pfs

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"nasd/internal/capability"
	"nasd/internal/cheops"
	"nasd/internal/client"
)

// Errors.
var (
	ErrNotFound = errors.New("pfs: no such file")
	ErrExists   = errors.New("pfs: file exists")
)

// FS is a NASD PFS instance: a name service over Cheops objects.
type FS struct {
	mgr   *cheops.Manager
	mu    sync.Mutex
	names map[string]uint64

	// Defaults for new files.
	pattern cheops.Pattern
	unit    int64
	width   int
	nextPl  int
}

// Config selects the default layout for new files.
type Config struct {
	Pattern    cheops.Pattern
	StripeUnit int64 // default 512 KB, the Figure 9 stripe unit
	Width      int   // default: all drives
}

// NewFS builds a filesystem over mgr.
func NewFS(mgr *cheops.Manager, cfg Config) *FS {
	if cfg.StripeUnit == 0 {
		cfg.StripeUnit = 512 << 10
	}
	return &FS{
		mgr:     mgr,
		names:   make(map[string]uint64),
		pattern: cfg.Pattern,
		unit:    cfg.StripeUnit,
		width:   cfg.Width,
	}
}

// Create makes a new file with the filesystem's default layout.
func (fs *FS) Create(ctx context.Context, name string, width int) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.names[name]; ok {
		return ErrExists
	}
	if width <= 0 {
		width = fs.width
	}
	id, err := fs.mgr.Create(ctx, fs.pattern, fs.unit, width, fs.nextPl)
	if err != nil {
		return err
	}
	fs.nextPl++
	fs.names[name] = id
	return nil
}

// Remove deletes a file.
func (fs *FS) Remove(ctx context.Context, name string) error {
	fs.mu.Lock()
	id, ok := fs.names[name]
	if ok {
		delete(fs.names, name)
	}
	fs.mu.Unlock()
	if !ok {
		return ErrNotFound
	}
	return fs.mgr.Remove(ctx, id)
}

// List returns the file names.
func (fs *FS) List() []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	out := make([]string, 0, len(fs.names))
	for n := range fs.names {
		out = append(out, n)
	}
	return out
}

// File is an open PFS file bound to one client's drive connections.
type File struct {
	fs   *FS
	name string
	obj  *cheops.Object
}

// Open opens name for I/O through the caller's drive connections.
// Each parallel client opens the file itself, obtaining its own
// component capabilities — that is what lets bandwidth scale.
func (fs *FS) Open(name string, drives []*client.Drive, rights capability.Rights) (*File, error) {
	fs.mu.Lock()
	id, ok := fs.names[name]
	fs.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}
	obj, err := cheops.OpenObject(fs.mgr, drives, id, rights)
	if err != nil {
		return nil, fmt.Errorf("pfs: opening %s: %w", name, err)
	}
	return &File{fs: fs, name: name, obj: obj}, nil
}

// Stat refreshes and returns the file size from the manager.
func (f *File) Stat() (uint64, error) {
	fs := f.fs
	fs.mu.Lock()
	id, ok := fs.names[f.name]
	fs.mu.Unlock()
	if !ok {
		return 0, ErrNotFound
	}
	desc, err := fs.mgr.Stat(id)
	if err != nil {
		return 0, err
	}
	return desc.Size, nil
}

// ReadAt reads n bytes at offset off (SIO-style explicit-offset read;
// no shared file pointer, so parallel clients never contend on one).
func (f *File) ReadAt(ctx context.Context, off uint64, n int) ([]byte, error) {
	return f.obj.ReadAt(ctx, off, n)
}

// WriteAt writes data at offset off.
func (f *File) WriteAt(ctx context.Context, off uint64, data []byte) error {
	return f.obj.WriteAt(ctx, off, data)
}

// ListIO issues a batch of reads concurrently and returns the results
// in order (the SIO low-level interface's list-of-requests entry
// point).
func (f *File) ListIO(ctx context.Context, offs []uint64, sizes []int) ([][]byte, error) {
	if len(offs) != len(sizes) {
		return nil, errors.New("pfs: ListIO length mismatch")
	}
	out := make([][]byte, len(offs))
	errs := make([]error, len(offs))
	var wg sync.WaitGroup
	for i := range offs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i], errs[i] = f.obj.ReadAt(ctx, offs[i], sizes[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
