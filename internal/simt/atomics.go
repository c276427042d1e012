package simt

import "sync/atomic"

// Global-memory atomic loads and stores, the only operations the kernels
// share memory with across blocks: a label or pruning flag that another
// SM's block may write in the same launch is read and written whole, as a
// 32-bit word is on the GPU. Every read-modify-write of the kernels runs
// within one block, on one SM goroutine, where plain operations suffice.

// AtomicLoadUint32 atomically loads p[i].
func AtomicLoadUint32(p []uint32, i int) uint32 { return atomic.LoadUint32(&p[i]) }

// AtomicStoreUint32 atomically stores v into p[i].
func AtomicStoreUint32(p []uint32, i int, v uint32) { atomic.StoreUint32(&p[i], v) }
