package repro.storage

import java.util.concurrent.ThreadLocalRandom
import java.util.concurrent.atomic.{AtomicInteger, AtomicLong, AtomicReference, AtomicReferenceArray}
import scala.annotation.tailrec

/** Lock-free concurrent skiplist index (first layer of §7.2).
  *
  * Keys are inserted at most once (`putIfAbsent`); the structure supports
  * ordered iteration and ceiling lookups. Insertion links levels bottom-up
  * with CAS; readers never block. Keys are never removed (matching the
  * paper's key layer, where eviction happens inside the per-key time list).
  */
final class ConcurrentSkipIndex[K, V](implicit ord: Ordering[K]) {
  private val MaxLevel = 16

  private final class Node(val key: K, val value: V, val levels: Int) {
    val next = new AtomicReferenceArray[Node](levels)
  }

  // Head sentinel: key/value unused.
  private val head = new Node(null.asInstanceOf[K], null.asInstanceOf[V], MaxLevel)
  private val count = new AtomicLong(0)

  private def randomLevel(): Int = {
    var lvl = 1
    val rnd = ThreadLocalRandom.current()
    while (lvl < MaxLevel && rnd.nextInt(4) == 0) lvl += 1
    lvl
  }

  /** Predecessors AND the successors observed during the walk, per level.
    * The successor captured at walk time is what the insert CAS validates:
    * re-reading `pred.next` after the walk would race with a concurrent
    * insert of a smaller key slipping in behind the walk (an out-of-order
    * link the CAS could not detect).
    */
  private def findPreds(key: K): (Array[Node], Array[Node]) = {
    val preds = new Array[Node](MaxLevel)
    val succs = new Array[Node](MaxLevel)
    var cur = head
    var l = MaxLevel - 1
    while (l >= 0) {
      var nxt = cur.next.get(l)
      while (nxt != null && ord.lt(nxt.key, key)) { cur = nxt; nxt = cur.next.get(l) }
      preds(l) = cur
      succs(l) = nxt
      l -= 1
    }
    (preds, succs)
  }

  /** First node with key >= `key`, by a read-only walk (no arrays). */
  private def ceiling(key: K): Node = {
    var cur = head
    var nxt: Node = null
    var l = MaxLevel - 1
    while (l >= 0) {
      nxt = cur.next.get(l)
      while (nxt != null && ord.lt(nxt.key, key)) { cur = nxt; nxt = cur.next.get(l) }
      l -= 1
    }
    nxt
  }

  def get(key: K): Option[V] = Option(getOrNull(key))

  /** The value under `key`, or null when absent (allocates nothing). */
  def getOrNull(key: K): V = {
    val n = ceiling(key)
    if (n != null && ord.equiv(n.key, key)) n.value else null.asInstanceOf[V]
  }

  /** Insert `key -> mk()` if absent; returns the (existing or new) value. */
  def getOrInsert(key: K, mk: => V): V = {
    val n = ceiling(key)
    if (n != null && ord.equiv(n.key, key)) n.value else insert(key, mk)
  }

  @tailrec private def insert(key: K, mk: => V): V = {
    val (preds, succs) = findPreds(key)
    val at0 = succs(0)
    if (at0 != null && ord.equiv(at0.key, key)) at0.value
    else {
      val node = new Node(key, mk, randomLevel())
      node.next.set(0, at0)
      if (!preds(0).next.compareAndSet(0, at0, node)) insert(key, mk) // lost the race; retry
      else {
        count.incrementAndGet()
        // Link the upper levels; a failed CAS at level l re-walks. A node
        // is visible at level l only after all lower levels are linked.
        var l = 1
        while (l < node.levels) {
          var done = false
          while (!done) {
            val (ps, ss) = findPreds(key)
            val nxt = ss(l)
            if (nxt != null && ord.equiv(nxt.key, key)) done = true // already linked here
            else {
              node.next.set(l, nxt)
              done = ps(l).next.compareAndSet(l, nxt, node)
            }
          }
          l += 1
        }
        node.value
      }
    }
  }

  def size: Long = count.get()

  /** All entries in key order. */
  def iterator: Iterator[(K, V)] = new Iterator[(K, V)] {
    private var cur = head.next.get(0)
    def hasNext: Boolean = cur != null
    def next(): (K, V) = { val r = (cur.key, cur.value); cur = cur.next.get(0); r }
  }

  /** Entries with key >= `from`, in key order. */
  def iteratorFrom(from: K): Iterator[(K, V)] = new Iterator[(K, V)] {
    private var cur = ceiling(from)
    def hasNext: Boolean = cur != null
    def next(): (K, V) = { val r = (cur.key, cur.value); cur = cur.next.get(0); r }
  }
}

/** One stored tuple: timestamp plus an opaque payload (typically a
  * `RowCodec`-encoded byte array, but tests also store decoded values).
  * [[TimeList]] hands out its own nodes as entries, so reads allocate
  * nothing per row.
  */
trait TsEntry[P] {
  def ts: Long
  def payload: P
}

/** Second layer of §7.2: a lock-free skiplist of entries in DESCENDING
  * timestamp order (newest first); among equal timestamps the newest
  * insert comes first.
  *
  * `scan` and `latest` seek to a window edge in O(log n) and then walk
  * level 0. Inserts link bottom-up with CAS; one whose ts is at or above
  * the newest entry (time-ordered ingest) links at the head with no
  * search. Upper levels are shortcuts only: every search moves past nodes
  * with ts strictly above its target, so they need no tie order of their
  * own. TTL eviction cuts the stale tail of each level with one CAS (all
  * expired nodes are contiguous at the tail because the list is
  * time-ordered).
  */
final class TimeList[P] {
  import TimeList._

  private val head = new Node[P](Long.MaxValue, null.asInstanceOf[P], new AtomicReferenceArray(MaxLevel - 1))
  private val count = new AtomicLong(0)
  // Levels in use: raised before a taller node links, never lowered, so
  // searches and trims that start at `top - 1` see every linked level.
  private val top = new AtomicInteger(1)

  /** Last node at `level` with ts > `ts`, searching down from the top. */
  private def predAt(ts: Long, level: Int): Node[P] = {
    var x = head
    var l = math.max(top.get() - 1, level)
    while (l >= level) {
      var n = x.next(l)
      while (n != null && n.ts > ts) { x = n; n = x.next(l) }
      l -= 1
    }
    x
  }

  /** Links `node` at level `l` after `from` or a later node with ts above
    * `node.ts`. The CAS validates the successor the walk saw, so a node
    * that slipped in meanwhile makes it re-walk rather than link out of
    * order.
    */
  private def linkAt(node: Node[P], l: Int, from: Node[P]): Unit = {
    var pred = from
    var done = false
    while (!done) {
      var succ = pred.next(l)
      while (succ != null && succ.ts > node.ts) { pred = succ; succ = pred.next(l) }
      node.setNext(l, succ)
      done = pred.casNext(l, succ, node)
    }
  }

  def insert(ts: Long, payload: P): Unit = {
    val h = randomHeight()
    val node = new Node[P](ts, payload, if (h > 1) new AtomicReferenceArray(h - 1) else null)
    val first = head.get()
    val newest = first == null || first.ts <= ts
    if (h > top.get()) top.accumulateAndGet(h, (a, b) => math.max(a, b))
    var l = 0
    while (l < h) {
      linkAt(node, l, if (newest) head else predAt(ts, l))
      l += 1
    }
    count.incrementAndGet()
  }

  /** First entry with ts <= `t`, or null. */
  private def seek(t: Long): Node[P] = {
    val first = head.get()
    if (first == null || first.ts <= t) first
    else {
      var n = predAt(t, 0).get()
      while (n != null && n.ts > t) n = n.get()
      n
    }
  }

  /** Newest-first iterator. */
  def iterator: Iterator[TsEntry[P]] = walk(head.get(), Long.MinValue)

  private def walk(from: Node[P], lo: Long): Iterator[TsEntry[P]] = new Iterator[TsEntry[P]] {
    private var cur = if (from != null && from.ts >= lo) from else null
    def hasNext: Boolean = cur != null
    def next(): TsEntry[P] = {
      val r = cur
      val n = cur.get()
      cur = if (n != null && n.ts >= lo) n else null
      r
    }
  }

  /** Entries with ts in [lo, hi], newest first: a seek to the first entry
    * at or below `hi`, then a level-0 walk down to `lo`.
    */
  def scan(lo: Long, hi: Long): Iterator[TsEntry[P]] =
    if (lo > hi) Iterator.empty else walk(seek(hi), lo)

  /** Most recent entry with ts <= `atOrBefore` (LAST JOIN's lookup). */
  def latest(atOrBefore: Long = Long.MaxValue): Option[TsEntry[P]] = Option(seek(atOrBefore))

  /** Batch-delete every entry with ts < cutoff (§7.2 "Out-of-Date Data
    * Removal"): cut each level's stale tail with one CAS, upper levels
    * first so no seek can jump into a cut tail.
    */
  def trimBefore(cutoff: Long): Int =
    if (cutoff == Long.MinValue) 0
    else {
      var l = top.get() - 1
      while (l >= 1) { cutAt(l, cutoff); l -= 1 }
      val tail = cutAt(0, cutoff)
      var n = 0
      var c = tail
      while (c != null) { n += 1; c = c.get() }
      count.addAndGet(-n)
      n
    }

  /** Unlinks level `l` below the last node with ts >= cutoff; returns the
    * first node cut (null when nothing was).
    */
  private def cutAt(l: Int, cutoff: Long): Node[P] = {
    var pred = predAt(cutoff - 1, l)
    var cut: Node[P] = null
    var done = false
    while (!done) {
      var succ = pred.next(l)
      while (succ != null && succ.ts >= cutoff) { pred = succ; succ = pred.next(l) }
      done = succ == null || pred.casNext(l, succ, null)
      if (done) cut = succ
      // else a concurrent insert moved the boundary; re-walk from pred
    }
    cut
  }

  def size: Long = count.get()
}

object TimeList {
  private val MaxLevel = 16

  /** A list node is its own entry: ts and payload inline, the level-0
    * link in the node itself, and links for levels 1+ only on nodes
    * taller than one level.
    */
  private final class Node[P](val ts: Long, val payload: P, up: AtomicReferenceArray[Node[P]])
      extends AtomicReference[Node[P]] with TsEntry[P] {
    def next(l: Int): Node[P] = if (l == 0) get() else up.get(l - 1)
    def setNext(l: Int, n: Node[P]): Unit = if (l == 0) set(n) else up.set(l - 1, n)
    def casNext(l: Int, expect: Node[P], update: Node[P]): Boolean =
      if (l == 0) compareAndSet(expect, update) else up.compareAndSet(l - 1, expect, update)
  }

  /** Level count with P(height > k) = 4^-k, capped at MaxLevel. */
  private def randomHeight(): Int =
    1 + (Integer.numberOfTrailingZeros(ThreadLocalRandom.current().nextInt() | (1 << 30)) >> 1)
}

/** The composed two-layer store: skiplist of keys, each holding a
  * timestamp skiplist of payloads. This is the online tablet's memtable.
  */
final class TimeSeriesStore[K, P](implicit ord: Ordering[K]) {
  private val index = new ConcurrentSkipIndex[K, TimeList[P]]

  def put(key: K, ts: Long, payload: P): Unit =
    index.getOrInsert(key, new TimeList[P]).insert(ts, payload)

  /** The key's time list, or null when the key was never put; callers
    * that read one key several times resolve it once here.
    */
  def series(key: K): TimeList[P] = index.getOrNull(key)

  def scan(key: K, lo: Long, hi: Long): Iterator[TsEntry[P]] =
    index.get(key).map(_.scan(lo, hi)).getOrElse(Iterator.empty)

  def latest(key: K, atOrBefore: Long = Long.MaxValue): Option[TsEntry[P]] =
    index.get(key).flatMap(_.latest(atOrBefore))

  def keys: Iterator[K] = index.iterator.map(_._1)
  def nKeys: Long = index.size
  def nRows: Long = index.iterator.map(_._2.size).sum

  /** TTL eviction across all keys; returns entries removed. */
  def evictBefore(cutoff: Long): Long =
    index.iterator.map(_._2.trimBefore(cutoff).toLong).sum
}
