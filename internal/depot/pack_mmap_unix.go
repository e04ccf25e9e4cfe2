//go:build unix

package depot

import (
	"os"
	"syscall"
)

// mmapFile maps size bytes of f read-only and shared. Writes to the file
// through pwrite stay visible through the mapping (one page cache), so the
// pack engine's read path can skip the syscall entirely. nil means the
// platform or the file refused the mapping, which degrades reads to pread
// but breaks nothing.
func mmapFile(f *os.File, size int64) []byte {
	if size <= 0 || size > int64(int(^uint(0)>>1)) {
		return nil
	}
	mm, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil
	}
	return mm
}

func munmapFile(mm []byte) {
	if mm != nil {
		syscall.Munmap(mm)
	}
}
