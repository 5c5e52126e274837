package repro.core.online

import java.util.concurrent.ConcurrentHashMap
import scala.jdk.CollectionConverters._
import repro.storage.{TimeList, TsEntry}

/** Mergeable partial aggregate (§5.1), built in place: enough state to
  * answer count(1) / count / sum / avg / min / max by merging. `rows`
  * counts every row (`count(1)`); `cnt`, `sum`, `min` and `max` cover only
  * rows whose value column is not null. A query folds buckets and raw edge
  * rows into one of these.
  */
final class PartialAcc {
  var rows = 0L; var cnt = 0L; var sum = 0.0
  var min = Double.PositiveInfinity; var max = Double.NegativeInfinity

  def add(v: Double): Unit = {
    rows += 1; cnt += 1; sum += v
    if (v < min) min = v
    if (v > max) max = v
  }
  /** One more row whose value column is null. */
  def addNull(): Unit = rows += 1
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
  * the coarsest fully-contained buckets, filling the ragged edges from
  * finer levels, and finally scanning raw rows (caller-provided callback,
  * typically a skiplist range scan) below the finest level — exactly
  * Figure 4's agg1..agg5 decomposition.
  *
  * Used alone, a table records every row it is given. A [[RequestEngine]]
  * binds its pre-aggregations to its primary table and their value
  * columns, and a bound table is lazy: it keeps no levels for a key until
  * the key's time list holds [[PreAggTable.BuildRows]] rows. The record
  * that sees the list reach that size builds every level from all of the
  * key's rows; from then on each row is recorded as it comes. Until then a
  * query scans the key's rows whole through `raw`, which for so few rows
  * is faster than a bucket merge (`repro.bench.PreAggAblation.sweep`).
  * Each row is counted once, by the build or by
  * its own record, because both run under the key's time-list monitor,
  * held from the row's list insert on.
  */
final class PreAggTable(val levels: Seq[Long]) {
  require(levels.nonEmpty && levels == levels.sorted, "levels must ascend")
  levels.sliding(2).foreach {
    case Seq(a, b) => require(b % a == 0, s"level $b must be a multiple of $a")
    case _         =>
  }
  private val widths = levels.toArray

  private val state = new ConcurrentHashMap[String, Array[PreAggTable.Level]]()

  /** The table and value column this pre-aggregation builds a key's levels
    * from; null while it is used alone.
    */
  @volatile private var binding: PreAggTable.Binding = null

  /** Binds this pre-aggregation to column `valCol` of `table`, named
    * `name`. Binding again to the same table and column does nothing; to
    * another one fails, naming both.
    */
  private[online] def bind(name: String, table: OnlineTable, valCol: String): Unit = synchronized {
    val b = binding
    if (b == null) binding = new PreAggTable.Binding(name, table, valCol)
    else if (!(b.table eq table) || b.valCol != valCol)
      throw new IllegalArgumentException(s"a pre-aggregation bound to column ${b.valCol} of table ${b.name} " +
        s"cannot also be bound to column $valCol of table $name")
  }

  /** Counts how many buckets the last query merged vs raw rows —
    * exposed so tests/benches can assert the hierarchy is actually used.
    */
  @volatile var lastQueryBuckets: Int = 0
  @volatile var lastQueryRawRows: Int = 0

  /** Records one row. On a bound table the row must already be stored in
    * the bound table, as [[RequestEngine.insert]] and a caller that puts
    * the row first both ensure: the key's levels are built from the stored
    * rows, under the same rule and lock as a row the engine inserts. Such a
    * caller's put is not under the lock, so it must not race another insert
    * of the same key.
    */
  def insert(key: String, ts: Long, v: Double): Unit = direct(key, ts, v, isNull = false)

  /** Records a row whose value column is null: it counts in `rows` only. */
  def insertNull(key: String, ts: Long): Unit = direct(key, ts, 0.0, isNull = true)

  private def direct(key: String, ts: Long, v: Double, isNull: Boolean): Unit = {
    val b = binding
    if (b == null) {
      var agg = state.get(key)
      if (agg == null) agg = state.computeIfAbsent(key, _ => Array.fill(widths.length)(new PreAggTable.Level(1, 0)))
      add(agg, ts, v, isNull)
    } else {
      val s = b.table.series(key)
      if (s == null)
        throw new IllegalArgumentException(s"key $key has no row in table ${b.name}: a bound pre-aggregation " +
          "records a row after it is stored")
      s.synchronized {
        val agg = levelsOf(key, s)
        if (agg != null) add(agg, ts, v, isNull)
      }
    }
  }

  /** Records a row just stored in the bound table: `s` is its key's time
    * list, whose monitor the caller has held since the row's insert.
    */
  private[online] def record(key: String, s: TimeList[Array[Byte]], ts: Long, row: Array[Byte]): Unit = {
    val agg = levelsOf(key, s)
    if (agg != null) {
      val f = binding.col.field(row)
      if (f == null || f.isNull(row)) add(agg, ts, 0.0, isNull = true) else add(agg, ts, f.double(row), isNull = false)
    }
  }

  /** A bound key's levels, where its latest row is still to be recorded;
    * null when there is nothing to record: the key's list, `s`, holds fewer
    * than [[PreAggTable.BuildRows]] rows, or just reached that size and its
    * levels were built here from all of them, that row included.
    */
  private def levelsOf(key: String, s: TimeList[Array[Byte]]): Array[PreAggTable.Level] = {
    val agg = state.get(key)
    if (agg == null && s.size >= PreAggTable.BuildRows) state.put(key, build(s))
    agg
  }

  /** Every level of a key from all of its rows, read as `record` reads
    * them. The rows are folded oldest first, so each level appends, into
    * arrays sized for them.
    */
  private def build(s: TimeList[Array[Byte]]): Array[PreAggTable.Level] = {
    var rows = new Array[TsEntry[Array[Byte]]](s.size.toInt)
    var n = 0
    val it = s.iterator
    while (it.hasNext) {
      if (n == rows.length) rows = java.util.Arrays.copyOf(rows, 2 * n + 1)
      rows(n) = it.next(); n += 1
    }
    val agg = new Array[PreAggTable.Level](widths.length)
    var i = 0
    while (i < agg.length) {
      val w = widths(i)
      var buckets = 0; var multi = 0
      var b = 0L; var inB = 0
      var j = n - 1
      while (j >= 0) {
        val bj = math.floorDiv(rows(j).ts, w) * w
        if (inB == 0 || bj != b) { buckets += 1; b = bj; inB = 1 }
        else { inB += 1; if (inB == 2) multi += 1 }
        j -= 1
      }
      agg(i) = new PreAggTable.Level(buckets, multi)
      i += 1
    }
    val col = binding.col
    var j = n - 1
    while (j >= 0) {
      val row = rows(j).payload
      val f = col.field(row)
      if (f == null || f.isNull(row)) add(agg, rows(j).ts, 0.0, isNull = true)
      else add(agg, rows(j).ts, f.double(row), isNull = false)
      j -= 1
    }
    agg
  }

  private def add(agg: Array[PreAggTable.Level], ts: Long, v: Double, isNull: Boolean): Unit =
    // Coarsest level first: its bucket counts the most rows, so a bucket
    // full of rows throws before any level has changed.
    agg.synchronized {
      var i = widths.length - 1
      while (i >= 0) {
        agg(i).add(math.floorDiv(ts, widths(i)) * widths(i), v, isNull)
        i -= 1
      }
    }

  /** Merge partials covering ts in [lo, hi] for `key`; `raw` scans raw
    * rows for sub-bucket edges and must return (ts, value) pairs, under
    * the contract of [[queryRows]].
    */
  def query(key: String, lo: Long, hi: Long,
            raw: (Long, Long) => Iterator[(Long, Double)]): PartialAcc =
    queryRows(key, lo, hi, (l, h, acc) => raw(l, h).foreach { case (_, v) => acc.add(v) })

  /** As [[query]], for raw rows whose value may be null: `raw(l, h, acc)`
    * folds every raw row with ts in [l, h] into `acc`.
    *
    * Coarsest level first, each level covers the widest bucket-aligned
    * span inside [lo, hi]; a finer level's span contains a coarser one's,
    * so it adds only its buckets left and right of what is covered. What
    * the finest level leaves uncovered are the raw edges: the left edge
    * lies in the finest bucket just before the cover, the right edge in
    * the one the cover ends at. An edge whose bucket counts no rows is not
    * scanned; the counts come from the searches the merge makes anyway.
    *
    * So for a key with buckets, `raw` has to supply exactly the rows
    * recorded through `insert`/`insertNull`: a row it holds that no bucket
    * counts may be skipped with its edge. A key with no buckets, or a
    * range that covers no finest bucket, is scanned whole.
    */
  def queryRows(key: String, lo: Long, hi: Long, raw: (Long, Long, PartialAcc) => Unit): PartialAcc = {
    val acc = new PartialAcc
    val agg = if (lo > hi) null else state.get(key)
    var buckets = 0
    var cs = 0L; var ce = 0L // covered span [cs, ce); empty while cs == ce
    var leftRows = 0L; var rightRows = 0L // rows in the finest buckets holding the edges
    if (agg != null) agg.synchronized {
      var i = widths.length - 1
      while (i >= 0) {
        val w  = widths(i)
        val lv = agg(i)
        val s  = math.floorDiv(lo + w - 1, w) * w // first bucket fully inside
        val e  = math.floorDiv(hi + 1, w) * w     // exclusive end of full cover
        if (s < e) {
          // Left piece [s, cs), or all of [s, e) while nothing is covered;
          // then the right piece [ce, e). The finest level searches even
          // an empty piece, to find its edge bucket.
          val fine  = i == 0
          val until = if (cs == ce) e else cs
          var z = 0
          if (s < until || fine) {
            val a = lv.lowerBound(s, 0)
            z = lv.mergeFrom(a, until, acc)
            buckets += z - a
            if (fine) { leftRows = lv.rowsAt(a - 1, s - w); rightRows = lv.rowsAt(z, e) }
          }
          if (cs != ce && (ce < e || fine)) {
            val b = lv.lowerBound(ce, z)
            val y = lv.mergeFrom(b, e, acc)
            buckets += y - b
            if (fine) rightRows = lv.rowsAt(y, e)
          }
          cs = s; ce = e
        }
        i -= 1
      }
    }
    val rows0 = acc.rows
    if (cs < ce) {
      if (lo < cs && leftRows > 0) raw(lo, cs - 1, acc)
      if (ce <= hi && rightRows > 0) raw(ce, hi, acc)
    } else if (lo <= hi) raw(lo, hi, acc)
    lastQueryBuckets = buckets
    lastQueryRawRows = (acc.rows - rows0).toInt
    acc
  }

  def bucketCount: Long = state.values.asScala.map(_.map(_.size.toLong).sum).sum
}

object PreAggTable {

  /** Rows a bound key's time list holds when its levels are built: below
    * this, a key keeps no levels and a query folds its rows.
    */
  private[online] final val BuildRows = 16

  /** A bound table's source: the primary table, named `name`, and the
    * handle through which every build and record reads the value column.
    */
  private final class Binding(val name: String, val table: OnlineTable, val valCol: String) {
    val col: OnlineTable.Column = table.column(valCol)
  }

  /** Row count of a one-row bucket, in a meta word's high 32 bits. */
  private final val OneRow = 1L << 32
  /** The most rows a bucket counts. */
  private final val MaxRows = 0xFFFFFFFFL

  /** One key's buckets at one level, sorted by bucket start, three longs
    * per bucket: its start, a meta word and the bits of its sum. The meta
    * word holds the row count in its high 32 bits. Most buckets hold one
    * row, and then the low bits are its non-null count (0 or 1) and the
    * sum is the row's value, which is also its min and max. When a bucket
    * takes its second row, its low bits index three longs in `side`: the
    * non-null count and the bits of min and max, and its sum goes on as a
    * running sum from that first value. `side` is allocated when a bucket
    * first takes a second row, or by a build. Both arrays start with room
    * for the `nBuckets` buckets and `nSide` side entries a build holds (one
    * and none for a level that records open), and grow by half, as
    * `ArrayList` does, since most keys hold few buckets and most buckets
    * hold one row. Guarded by the key's lock.
    */
  private final class Level(nBuckets: Int, nSide: Int) {
    var size = 0
    private var buckets = new Array[Long](3 * nBuckets)
    private var side = if (nSide == 0) Array.emptyLongArray else new Array[Long](3 * nSide)
    private var sideSize = 0

    private def start(i: Int): Long = buckets(3 * i)
    private def dbl(a: Array[Long], j: Int): Double = java.lang.Double.longBitsToDouble(a(j))
    private def setDbl(a: Array[Long], j: Int, v: Double): Unit = a(j) = java.lang.Double.doubleToRawLongBits(v)

    /** First bucket index at or after `from` with start >= `b` (size when
      * there is none).
      */
    def lowerBound(b: Long, from: Int): Int = {
      var l = from; var h = size
      while (l < h) {
        val m = (l + h) >>> 1
        if (start(m) < b) l = m + 1 else h = m
      }
      l
    }

    /** Adds one row to bucket `b`. A time-ordered insert lands on or after
      * the last bucket; an older one binary-searches and, for a new bucket,
      * shifts the later ones up.
      */
    def add(b: Long, v: Double, isNull: Boolean): Unit = {
      val i =
        if (size > 0 && start(size - 1) == b) size - 1
        else if (size == 0 || start(size - 1) < b) open(size, b)
        else {
          val j = lowerBound(b, 0)
          if (start(j) == b) j else open(j, b)
        }
      val o = 3 * i
      val rows = buckets(o + 1) >>> 32
      if (rows == 0) {
        if (!isNull) { buckets(o + 1) = OneRow | 1L; setDbl(buckets, o + 2, v) }
        else buckets(o + 1) = OneRow
      } else {
        if (rows == MaxRows)
          throw new IllegalStateException(s"pre-aggregation bucket at $b already counts $MaxRows rows, the most a bucket holds")
        val s = if (rows == 1) promote(o) else 3 * buckets(o + 1).toInt
        buckets(o + 1) += OneRow
        if (!isNull) {
          side(s) += 1
          setDbl(buckets, o + 2, dbl(buckets, o + 2) + v)
          if (v < dbl(side, s + 1)) setDbl(side, s + 1, v)
          if (v > dbl(side, s + 2)) setDbl(side, s + 2, v)
        }
      }
    }

    /** Inserts an empty bucket `b` at index `i`; returns `i`. */
    private def open(i: Int, b: Long): Int = {
      if (3 * size == buckets.length) buckets = java.util.Arrays.copyOf(buckets, 3 * (size + math.max(1, size >> 1)))
      System.arraycopy(buckets, 3 * i, buckets, 3 * (i + 1), 3 * (size - i))
      val o = 3 * i
      buckets(o) = b; buckets(o + 1) = 0; buckets(o + 2) = 0
      size += 1
      i
    }

    /** Gives the one-row bucket at offset `o` a side entry holding its
      * row's count, min and max as [[PartialAcc.add]] leaves them, so a NaN
      * sets neither. Returns the entry's offset in `side`.
      */
    private def promote(o: Int): Int = {
      if (3 * sideSize == side.length) side = java.util.Arrays.copyOf(side, 3 * (sideSize + math.max(1, sideSize >> 1)))
      val s = 3 * sideSize
      val v = dbl(buckets, o + 2)
      var min = Double.PositiveInfinity; var max = Double.NegativeInfinity
      val cnt = buckets(o + 1) & 1L
      if (cnt == 1) {
        if (v < min) min = v
        if (v > max) max = v
      }
      side(s) = cnt; setDbl(side, s + 1, min); setDbl(side, s + 2, max)
      buckets(o + 1) = OneRow | sideSize
      sideSize += 1
      s
    }

    /** Merges the buckets from index `i` on that start before `until` into
      * `acc`; returns the index after the last one merged. A one-row
      * bucket merges as its row. A bucket's sum starts from its first value,
      * not from +0.0 as a fold does, so it can read -0.0 where a fold reads
      * +0.0; `acc.sum` starts at +0.0 and so is never -0.0, and adding
      * either zero to it gives the same bits.
      */
    def mergeFrom(i0: Int, until: Long, acc: PartialAcc): Int = {
      var i = i0
      while (i < size && start(i) < until) {
        val o = 3 * i
        val meta = buckets(o + 1)
        if (meta == OneRow) acc.addNull()
        else if (meta == (OneRow | 1L)) acc.add(dbl(buckets, o + 2))
        else {
          val s = 3 * meta.toInt
          acc.rows += meta >>> 32
          acc.cnt += side(s)
          acc.sum += dbl(buckets, o + 2)
          if (dbl(side, s + 1) < acc.min) acc.min = dbl(side, s + 1)
          if (dbl(side, s + 2) > acc.max) acc.max = dbl(side, s + 2)
        }
        i += 1
      }
      i
    }

    /** Rows of bucket `i` if it starts at `b`, else 0. */
    def rowsAt(i: Int, b: Long): Long =
      if (i >= 0 && i < size && start(i) == b) buckets(3 * i + 1) >>> 32 else 0L
  }
}
