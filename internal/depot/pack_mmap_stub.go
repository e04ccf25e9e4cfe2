//go:build !unix

package depot

import "os"

// mmapFile on platforms without a usable mmap: the pack engine falls back
// to pread for every read.
func mmapFile(f *os.File, size int64) []byte { return nil }

func munmapFile(mm []byte) {}
