//go:build !linux

package ingest

import (
	"errors"
	"os"
)

// mapFile maps nothing where there is no mmap(2) fast path: Open streams
// the file through a window instead, as it streams a FIFO.
func mapFile(*os.File, int64) ([]byte, func() error, error) {
	return nil, nil, errors.ErrUnsupported
}
