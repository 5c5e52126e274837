package repro.storage

import java.util.concurrent.{ConcurrentHashMap, ThreadLocalRandom}
import scala.jdk.CollectionConverters._

/** One stored tuple: timestamp plus an opaque payload (the online tables
  * store `RowCodec`-encoded byte arrays; tests also store plain values).
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
final class TimeList[P] extends TimeListHead {
  import TimeList._

  // The list is its own head: its level-0 link and its tower (installed
  // with the first node taller than one level) come from `TimeListHead`.
  // Levels in use (`top`) are raised before a taller node links and never
  // lowered, so searches and trims that start at `top - 1` see every
  // linked level.

  /** `x`'s successor at level `l`: every link but the list itself is a
    * node.
    */
  private def nextAt(x: SkipLink, l: Int): Node[P] = x.next(l).asInstanceOf[Node[P]]

  /** Last link at `level` (the list itself, or a node) with ts > `ts`,
    * searching down from the top.
    */
  private def predAt(ts: Long, level: Int): SkipLink = {
    var x: SkipLink = this
    var l = math.max(top() - 1, level)
    while (l >= level) {
      var n = nextAt(x, l)
      while (n != null && n.ts > ts) { x = n; n = nextAt(x, l) }
      l -= 1
    }
    x
  }

  /** Links `node` at level `l` after `from` or a later node with ts above
    * `node.ts`. The CAS validates the successor the walk saw, so a node
    * that slipped in meanwhile makes it re-walk rather than link out of
    * order.
    */
  private def linkAt(node: Node[P], l: Int, from: SkipLink): Unit = {
    var pred = from
    var done = false
    while (!done) {
      var succ = nextAt(pred, l)
      while (succ != null && succ.ts > node.ts) { pred = succ; succ = nextAt(pred, l) }
      node.setNext(l, succ)
      done = pred.casNext(l, succ, node)
    }
  }

  def insert(ts: Long, payload: P): Unit = {
    val h = randomHeight()
    val node = new Node[P](ts, payload, if (h > 1) new Array[SkipLink](h - 1) else null)
    val first = nextAt(this, 0)
    val newest = first == null || first.ts <= ts
    raiseTop(h)
    var l = 0
    while (l < h) {
      linkAt(node, l, if (newest) this else predAt(ts, l))
      l += 1
    }
    addCount(1)
  }

  /** First entry with ts <= `t`, or null. */
  private def seek(t: Long): Node[P] = {
    val first = nextAt(this, 0)
    if (first == null || first.ts <= t) first
    else {
      var n = nextAt(predAt(t, 0), 0)
      while (n != null && n.ts > t) n = nextAt(n, 0)
      n
    }
  }

  /** Newest-first iterator. */
  def iterator: Iterator[TsEntry[P]] = walk(nextAt(this, 0), Long.MinValue)

  private def walk(from: Node[P], lo: Long): Iterator[TsEntry[P]] = new Iterator[TsEntry[P]] {
    private var cur = if (from != null && from.ts >= lo) from else null
    def hasNext: Boolean = cur != null
    def next(): TsEntry[P] = {
      val r = cur
      val n = nextAt(cur, 0)
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

  /** As [[latest]], null when there is none: the request path's lookup. */
  private[repro] def latestOrNull(atOrBefore: Long): TsEntry[P] = seek(atOrBefore)

  /** Batch-delete every entry with ts < cutoff (§7.2 "Out-of-Date Data
    * Removal"): cut each level's stale tail with one CAS, upper levels
    * first so no seek can jump into a cut tail.
    */
  def trimBefore(cutoff: Long): Int =
    if (cutoff == Long.MinValue) 0
    else {
      var l = top() - 1
      while (l >= 1) { cutAt(l, cutoff); l -= 1 }
      val tail = cutAt(0, cutoff)
      var n = 0
      var c = tail
      while (c != null) { n += 1; c = nextAt(c, 0) }
      addCount(-n)
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
      var succ = nextAt(pred, l)
      while (succ != null && succ.ts >= cutoff) { pred = succ; succ = nextAt(pred, l) }
      done = succ == null || pred.casNext(l, succ, null)
      if (done) cut = succ
      // else a concurrent insert moved the boundary; re-walk from pred
    }
    cut
  }

  def size: Long = count()

  /** Links missing above level 0: for each upper level, the nodes tall
    * enough for it less the nodes its walk reaches. 0 whenever no insert
    * is running; a lost link would only slow searches, so tests check it
    * here.
    */
  private[storage] def lostLinks: Int = {
    var lost = 0
    var l = 1
    while (l < top()) {
      var n = nextAt(this, 0)
      while (n != null) { if (n.up() != null && n.up().length >= l) lost += 1; n = nextAt(n, 0) }
      n = nextAt(this, l)
      while (n != null) { lost -= 1; n = nextAt(n, l) }
      l += 1
    }
    lost
  }
}

object TimeList {
  /** A list node is its own entry: ts and payload inline, the level-0
    * link in the node itself, and a plain array of links for levels 1+
    * only on nodes taller than one level (`final`, unlike the list's).
    */
  private final class Node[P](val ts: Long, val payload: P, tower: Array[SkipLink])
      extends SkipLink with TsEntry[P] {
    override def up(): Array[SkipLink] = tower
  }

  /** Level count with P(height > k) = 4^-k, capped at `MAX_LEVEL` (16). */
  private def randomHeight(): Int =
    1 + (Integer.numberOfTrailingZeros(ThreadLocalRandom.current().nextInt() | (1 << 30)) >> 1)
}

/** The composed two-layer store: a hash map of keys, each holding a
  * timestamp skiplist of payloads. This is the online tablet's memtable.
  * Request mode only looks keys up, never walks them in order, so the key
  * layer is a hash map rather than the paper's key skiplist (OpenMLDB's
  * own memtable also splits keys by hash first).
  */
final class TimeSeriesStore[K, P] {
  private val index = new ConcurrentHashMap[K, TimeList[P]]

  def put(key: K, ts: Long, payload: P): Unit = listOf(key).insert(ts, payload)

  /** The key's time list, made empty when the key has none. A writer that
    * records more per row than the list holds inserts through it, under
    * its monitor.
    */
  def listOf(key: K): TimeList[P] = {
    val s = index.get(key)
    if (s != null) s else index.computeIfAbsent(key, _ => new TimeList[P])
  }

  /** The key's time list, or null when the key was never put; callers
    * that read one key several times resolve it once here.
    */
  def series(key: K): TimeList[P] = index.get(key)

  def scan(key: K, lo: Long, hi: Long): Iterator[TsEntry[P]] = {
    val s = series(key)
    if (s == null) Iterator.empty else s.scan(lo, hi)
  }

  def latest(key: K, atOrBefore: Long = Long.MaxValue): Option[TsEntry[P]] = {
    val s = series(key)
    if (s == null) None else s.latest(atOrBefore)
  }

  def nKeys: Long = index.size
  def nRows: Long = index.values.asScala.iterator.map(_.size).sum

  /** Every stored entry, key by key (a walk of the whole store). */
  def entries: Iterator[TsEntry[P]] = index.values.asScala.iterator.flatMap(_.iterator)

  /** TTL eviction across all keys; returns entries removed. */
  def evictBefore(cutoff: Long): Long =
    index.values.asScala.iterator.map(_.trimBefore(cutoff).toLong).sum
}
