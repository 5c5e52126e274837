package repro.core.online

import java.util.concurrent.ConcurrentHashMap
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Mergeable partial aggregate kept per pre-agg bucket (§5.1): enough
  * state to answer count / sum / avg / min / max by merging.
  */
final case class Partial(cnt: Long, sum: Double, min: Double, max: Double) {
  def merge(o: Partial): Partial =
    Partial(cnt + o.cnt, sum + o.sum, math.min(min, o.min), math.max(max, o.max))
  def add(v: Double): Partial =
    Partial(cnt + 1, sum + v, math.min(min, v), math.max(max, v))
}
object Partial {
  val empty: Partial = Partial(0L, 0.0, Double.PositiveInfinity, Double.NegativeInfinity)
}

/** Long-window pre-aggregation (§5.1): a multi-level aggregator hierarchy.
  *
  * `levels` are bucket widths in ms, ascending, each dividing the next
  * (e.g. 1s, 60s, 3600s) so coarse buckets align with fine ones. Buckets
  * are maintained incrementally on every insert (the paper updates them
  * asynchronously off the binlog; driver-locally we update in-line under
  * a per-key lock, which preserves the same visible state).
  *
  * A query over [lo, hi] is answered by greedily covering the range with
  * the coarsest fully-contained buckets, recursing into finer levels at
  * the ragged edges, and finally scanning raw rows (caller-provided
  * callback, typically a skiplist range scan) below the finest level —
  * exactly Figure 4's agg1..agg5 decomposition.
  */
final class PreAggTable(val levels: Seq[Long]) {
  require(levels.nonEmpty && levels == levels.sorted, "levels must ascend")
  levels.sliding(2).foreach {
    case Seq(a, b) => require(b % a == 0, s"level $b must be a multiple of $a")
    case _         =>
  }

  /** Per-key aggregator state: one bucket map per level. */
  private final class KeyAgg(nLevels: Int) {
    val levels: Array[mutable.LongMap[Partial]] = Array.fill(nLevels)(mutable.LongMap.empty[Partial])
  }

  private val state = new ConcurrentHashMap[String, KeyAgg]()

  /** Counts how many bucket lookups the last query used vs raw rows —
    * exposed so tests/benches can assert the hierarchy is actually used.
    */
  @volatile var lastQueryBuckets: Int = 0
  @volatile var lastQueryRawRows: Int = 0

  def insert(key: String, ts: Long, v: Double): Unit = {
    val agg = state.computeIfAbsent(key, _ => new KeyAgg(levels.size))
    agg.synchronized {
      levels.indices.foreach { i =>
        val b = math.floorDiv(ts, levels(i)) * levels(i)
        agg.levels(i)(b) = agg.levels(i).getOrElse(b, Partial.empty).add(v)
      }
    }
  }

  /** Merge partials covering ts in [lo, hi] for `key`; `raw` scans raw
    * rows for sub-bucket edges and must return (ts, value) pairs.
    */
  def query(key: String, lo: Long, hi: Long,
            raw: (Long, Long) => Iterator[(Long, Double)]): Partial = {
    lastQueryBuckets = 0
    lastQueryRawRows = 0
    val agg = state.get(key)
    def scanRaw(l: Long, h: Long): Partial =
      raw(l, h).foldLeft(Partial.empty) { case (p, (_, v)) => lastQueryRawRows += 1; p.add(v) }
    def cover(levelIdx: Int, l: Long, h: Long): Partial = {
      if (l > h) Partial.empty
      else if (levelIdx < 0 || agg == null) scanRaw(l, h)
      else {
        val width = levels(levelIdx)
        val start = math.floorDiv(l + width - 1, width) * width  // first bucket fully inside
        val end   = math.floorDiv(h + 1, width) * width          // exclusive end of full cover
        if (start >= end) cover(levelIdx - 1, l, h)
        else {
          var p = Partial.empty
          agg.synchronized {
            val m = agg.levels(levelIdx)
            // A query range can span vastly more bucket slots than exist
            // (e.g. an effectively-unbounded window): enumerate whichever
            // side is smaller — existing buckets or slots in range.
            if ((end - start) / width > m.size) {
              m.foreach { case (b, part) =>
                if (b >= start && b < end) { p = p.merge(part); lastQueryBuckets += 1 }
              }
            } else {
              var b = start
              while (b < end) {
                m.get(b).foreach { part => p = p.merge(part); lastQueryBuckets += 1 }
                b += width
              }
            }
          }
          p.merge(cover(levelIdx - 1, l, start - 1)).merge(cover(levelIdx - 1, end, h))
        }
      }
    }
    cover(levels.size - 1, lo, hi)
  }

  def keyCount: Int = state.size
  def bucketCount: Long = state.values.asScala.map(_.levels.map(_.size.toLong).sum).sum
}
