package repro.core.online

import repro.core._
import repro.core.functions.AggCore
import repro.storage.{TimeList, TsEntry}

/** Online Request Mode executor (§3.2 (3)): each request tuple is
  * *virtually inserted* into the primary table, the deployed
  * [[FeatureSpec]] runs against the stores, and one feature row comes
  * back. All aggregates fold the exact [[AggCore]] states the offline
  * Spark plan uses.
  *
  * The spec is compiled once, at construction (the JVM counterpart of the
  * paper's compiled request plan, §3–4): the distinct `(table, key
  * column)` reads, each resolved to its time list once per request; per
  * window, the features folded over the raw frame, all in one pass; and
  * per `(window, value column)`, one [[PreAggTable]] merge serving that
  * window's count/sum/avg/min/max — the §5.1 optimization, whose raw
  * edges come from the same resolved time list.
  *
  * Stored rows are read as §7.1 bytes: every column the plan reads is
  * resolved to an [[OnlineTable.Column]], which gives its ordinal and type
  * per layout version, and a window decodes each of its input columns once
  * per frame row, whatever number of features read it. `insert` and
  * `request` take and give maps; they are the encode/decode boundary.
  *
  * Frame order, which the order-sensitive functions see: ascending ts; at
  * equal ts, primary rows before union rows (unions in listed order);
  * within a table, the time list's tie order (newest insert first); the
  * request row last.
  */
final class RequestEngine(
    spec: FeatureSpec,
    tables: Map[String, OnlineTable],
    preAgg: Map[(String, String), PreAggTable] = Map.empty) {
  import RequestEngine._

  spec.requireTables(tables.contains)
  private val primary = tables(spec.primary)

  /** Ingest a data tuple into a table (and its pre-aggregators).
    *
    * A primary row is stored in its table first, then recorded in each
    * pre-aggregation, under its key's time-list monitor from the store on.
    * A pre-aggregation keeps no buckets for a key whose list holds fewer
    * than [[PreAggTable.BuildRows]] rows; it scans such a key's rows whole,
    * so it sees a row as soon as it is stored. The insert that brings the
    * list to that size builds the key's buckets from all of its rows, and
    * each later row is recorded on its own: a row is counted once, by the
    * build or by its record.
    *
    * A key with buckets counts the row once it is recorded, inside the
    * covered buckets and on a raw edge alike: an edge is scanned only when
    * its finest bucket counts rows, and a recorded row is already in the
    * table. So once `insert` returns, every request sees the row in every
    * feature. A request that runs while an insert is between the two steps
    * sees the row in its raw-folded features but may miss it in the
    * pre-aggregated ones; it can see it there early only on an edge whose
    * finest bucket already counts another recorded row.
    */
  def insert(table: String, row: Map[String, Any]): Unit =
    tables(table).put(table, row, if (table == spec.primary) feedPreAggs else null)

  /** Records a stored primary row in each pre-aggregation (null when there
    * are none).
    */
  private val feedPreAggs: OnlineTable.Stored =
    if (preAgg.isEmpty) null
    else {
      val pas = preAgg.values.toArray
      (key, list, ts, row) => {
        var i = 0
        while (i < pas.length) { pas(i).record(key, list, ts, row); i += 1 }
      }
    }

  /** Serve one request tuple: virtual insert + feature computation. The
    * tuple is NOT persisted (mirroring OpenMLDB request mode).
    */
  def request(req: Map[String, Any]): Map[String, Any] = {
    val series = new Array[TimeList[Array[Byte]]](readTables.length)
    var i = 0
    while (i < series.length) {
      series(i) = readTables(i).series(String.valueOf(req(readCols(i))))
      i += 1
    }
    val values = new Array[Any](outNames.length)
    i = 0
    while (i < windowPlans.length) { windowPlans(i).compute(req, series, values); i += 1 }
    if (joinPlans.length > 0) {
      val ts = primary.tsOf(req)
      i = 0
      while (i < joinPlans.length) {
        val j = joinPlans(i)
        val s = series(j.read)
        val e = if (s == null) null else s.latestOrNull(ts)
        var c = 0
        while (c < j.cols.length) {
          values(j.slots(c)) = if (e == null) null else j.cols(c).value(e.payload)
          c += 1
        }
        i += 1
      }
    }
    new FeatureRow(req, outNames, outIndex, values)
  }

  // ---------------------------------------------------------- compiled plan

  /** The distinct `(table, request column holding its key)` pairs the spec
    * reads, filled while the plans below are built.
    */
  private val reads = scala.collection.mutable.ArrayBuffer.empty[(String, String)]
  private def readOf(table: String, keyCol: String): Int = {
    val i = reads.indexOf((table, keyCol))
    if (i >= 0) i else { reads += ((table, keyCol)); reads.length - 1 }
  }

  /** The response's output columns in production order (each window's
    * pre-aggregated features, then its folded ones; then the LAST JOIN
    * columns), filled while the plans below are built, and the slot of
    * each. A name given twice keeps one slot, which the later write fills.
    */
  private val outBuffer = scala.collection.mutable.ArrayBuffer.empty[String]
  private val outIndex  = new java.util.HashMap[String, Integer]
  private def slotOf(name: String): Int = {
    val i = outIndex.get(name)
    if (i != null) i
    else { outIndex.put(name, outBuffer.length); outBuffer += name; outBuffer.length - 1 }
  }
  private def slotsOf(names: Seq[String]): Array[Int] = {
    val slots = new Array[Int](names.length)
    var i = 0
    while (i < slots.length) { slots(i) = slotOf(names(i)); i += 1 }
    slots
  }

  /** A pre-aggregation serving a window: its value column (by name in the
    * request, by handle in the primary table's rows) and the features
    * derived from its merged partial, with their output slots.
    */
  private final class Served(val valCol: String, val pa: PreAggTable, features: Seq[Feature]) {
    val col: OnlineTable.Column = primary.column(valCol)
    val fns: Array[FeatureFn]   = new Array[FeatureFn](features.length)
    val slots: Array[Int]       = new Array[Int](features.length)
    locally { var i = 0; while (i < fns.length) { fns(i) = features(i).fn; slots(i) = slotOf(features(i).name); i += 1 } }
  }

  /** The §5.1 binding rule: count/sum/avg/min/max over a non-union window
    * with an aggregator for the value column. Count can ride on any
    * aggregator of its window: buckets count every row (`count(1)`).
    */
  private def bindingOf(f: Feature, w: WindowDef): Option[(String, PreAggTable)] =
    if (w.unionTables.nonEmpty) None
    else f.fn match {
      case FeatureFn.Sum(c) => preAgg.get((w.name, c)).map((c, _))
      case FeatureFn.Avg(c) => preAgg.get((w.name, c)).map((c, _))
      case FeatureFn.Min(c) => preAgg.get((w.name, c)).map((c, _))
      case FeatureFn.Max(c) => preAgg.get((w.name, c)).map((c, _))
      case FeatureFn.Count  => preAgg.collectFirst { case ((wn, c), pa) if wn == w.name => (c, pa) }
      case _                => None
    }

  /** One window's features: `served` from pre-aggregations, `folds` over
    * the frame merged from `sources` (read slots: primary, then unions),
    * fed from `inputs`, the distinct columns the folds read.
    */
  private final class WindowPlan(val w: WindowDef, sources: Array[Int], val served: Array[Served],
                                 inputs: Array[Input], folds: Array[Fold]) {
    def compute(req: Row, series: Array[TimeList[Array[Byte]]], out: Array[Any]): Unit = {
      val t  = num(req(w.tsCol)).toLong
      val lo = t - w.rangeMs
      if (served.length > 0) {
        val key = String.valueOf(req(w.keyCol))
        val s   = series(sources(0))
        var i = 0
        while (i < served.length) {
          val b = served(i)
          val p = preAggPartial(b, key, s, lo, t, req)
          var f = 0
          while (f < b.fns.length) { out(b.slots(f)) = fromPartial(b.fns(f), p); f += 1 }
          i += 1
        }
      }
      if (folds.length > 0) foldFrame(req, series, lo, t, out)
    }

    /** Folds every raw feature of the window in one pass over its frame.
      * Each source's scan is buffered newest first; the merge repeatedly
      * takes the oldest remaining tie run (lowest source on equal ts) and
      * feeds it forward, which keeps the time list's tie order.
      */
    private def foldFrame(req: Row, series: Array[TimeList[Array[Byte]]], lo: Long, t: Long,
                          out: Array[Any]): Unit = {
      var buf  = new Array[TsEntry[Array[Byte]]](16)
      var n    = 0
      val from = new Array[Int](sources.length)
      val end  = new Array[Int](sources.length)
      var k = 0
      while (k < sources.length) {
        from(k) = n
        val s = series(sources(k))
        if (s != null) {
          val it = s.scan(lo, t)
          while (it.hasNext) {
            if (n == buf.length) buf = java.util.Arrays.copyOf(buf, 2 * n)
            buf(n) = it.next(); n += 1
          }
        }
        end(k) = n
        k += 1
      }
      val cells = new Array[Cell](inputs.length)
      var i = 0
      while (i < cells.length) { cells(i) = new Cell(inputs(i)); i += 1 }
      val feeds = new Array[Feed](folds.length)
      i = 0
      while (i < feeds.length) { feeds(i) = folds(i).feed(cells); i += 1 }
      def feed(): Unit = { var f = 0; while (f < feeds.length) { feeds(f).row(); f += 1 } }
      var done = false
      while (!done) {
        var best = -1
        var ts   = 0L
        k = 0
        while (k < sources.length) {
          if (end(k) > from(k) && (best < 0 || buf(end(k) - 1).ts < ts)) { best = k; ts = buf(end(k) - 1).ts }
          k += 1
        }
        if (best < 0) done = true
        else {
          var j = end(best) - 1
          while (j > from(best) && buf(j - 1).ts == ts) j -= 1
          var r = j
          while (r < end(best)) {
            val row = buf(r).payload
            var c = 0
            while (c < cells.length) { cells(c).load(best, row); c += 1 }
            feed()
            r += 1
          }
          end(best) = j
        }
      }
      var c = 0
      while (c < cells.length) { cells(c).load(req); c += 1 }
      feed()
      var f = 0
      while (f < folds.length) { out(folds(f).slot) = feeds(f).result; f += 1 }
    }
  }

  private val windowPlans: Array[WindowPlan] = spec.windows.flatMap { w =>
    val names = spec.primary +: w.unionTables
    names.foreach(requireIndexed(s"window ${w.name}", _, w.keyCol, w.tsCol))
    val fs = spec.features.filter(_.window == w.name)
    if (fs.isEmpty) None
    else {
      val srcTables = names.map(tables)
      val sources = names.map(readOf(_, w.keyCol)).toArray
      val bound   = fs.map(f => f -> bindingOf(f, w))
      val served  = bound.collect { case (f, Some((c, pa))) => (c, pa, f) }
        .groupBy(_._1).toSeq
        .map { case (c, xs) => new Served(c, xs.head._2, xs.map(_._3)) }.toArray
      val inputs = scala.collection.mutable.ArrayBuffer.empty[Input]
      def input(col: String, as: Int): Int = {
        val i = inputs.indexWhere(in => in.col == col && in.as == as)
        if (i >= 0) i else { inputs += new Input(col, as, srcTables.map(_.column(col)).toArray); inputs.length - 1 }
      }
      val folds = bound.collect { case (f, None) => foldOf(f, input, slotOf(f.name)) }.toArray
      Some(new WindowPlan(w, sources, served, inputs.toArray, folds))
    }
  }.toArray

  private final class JoinPlan(val read: Int, val cols: Array[OnlineTable.Column], val slots: Array[Int])
  private val joinPlans: Array[JoinPlan] = spec.lastJoins.map { lj =>
    requireIndexed(s"LAST JOIN ${lj.table}", lj.table, lj.keyCol, lj.tsCol)
    new JoinPlan(readOf(lj.table, lj.keyCol), lj.valCols.map(tables(lj.table).column).toArray,
      slotsOf(lj.valCols.map(lj.prefix + _)))
  }.toArray
  private val outNames: Array[String] = outBuffer.toArray

  // Each `Served` is one (window, column) a pre-aggregation serves; one that
  // serves none would be fed on every primary insert and never read.
  if (windowPlans.foldLeft(0)(_ + _.served.length) < preAgg.size)
    throw new IllegalArgumentException("pre-aggregations no request reads (undeclared or WINDOW UNION window, or no " +
      "feature binds them): " + (preAgg.keySet -- windowPlans.flatMap(p => p.served.map(b => (p.w.name, b.valCol))).toSeq)
        .map { case (w, c) => s"$c over window $w" }.mkString(", "))

  /** Fails unless `table` is indexed by the columns `reader` reads it by, as offline does. Over every window and
    * LAST JOIN this makes the primary's ts, which LAST JOIN reads online, the first window's, which it reads offline.
    */
  private def requireIndexed(reader: String, table: String, keyCol: String, tsCol: String): Unit = {
    val t = tables(table)
    require(t.keyCol == keyCol && t.tsCol == tsCol,
      s"$reader reads table $table by ($keyCol, $tsCol), but $table is indexed by (${t.keyCol}, ${t.tsCol})")
  }

  // Last, once every check has passed: each pre-aggregation builds a key's
  // buckets from the primary table's rows.
  preAgg.foreach { case ((_, c), pa) => pa.bind(spec.primary, primary, c) }

  private val readTables: Array[OnlineTable] = reads.map(r => tables(r._1)).toArray
  private val readCols: Array[String]        = reads.map(_._2).toArray

  /** §5.1 fast path: bucket partials plus the raw edges, read from the
    * request's resolved time list, plus the virtual row.
    */
  private def preAggPartial(b: Served, key: String, s: TimeList[Array[Byte]], lo: Long, t: Long,
                            req: Row): PartialAcc = {
    val acc = b.pa.queryRows(key, lo, t, (l, h, acc) =>
      if (s != null) {
        val it = s.scan(l, h)
        while (it.hasNext) {
          val row = it.next().payload
          val f   = b.col.field(row)
          if (f == null || f.isNull(row)) acc.addNull() else acc.add(f.double(row))
        }
      })
    val v = req.getOrElse(b.valCol, null)
    if (v == null) acc.addNull() else acc.add(num(v))
    acc
  }
}

object RequestEngine {
  private type Row = Map[String, Any]

  /** One response: the request's columns, then the features in `values`,
    * one per slot, named by `names` and found through `index`. A feature
    * shadows a request column of the same name, in lookups and in
    * iteration. `updated` and `removed` return an ordinary `HashMap`.
    */
  private final class FeatureRow(req: Row, names: Array[String], index: java.util.HashMap[String, Integer],
                                 values: Array[Any]) extends scala.collection.immutable.AbstractMap[String, Any] {
    def get(key: String): Option[Any] = {
      val i = index.get(key)
      if (i != null) Some(values(i)) else req.get(key)
    }
    override def getOrElse[V1 >: Any](key: String, default: => V1): V1 = {
      val i = index.get(key)
      if (i != null) values(i) else req.getOrElse(key, default)
    }
    override def apply(key: String): Any = getOrElse(key, default(key))
    override def contains(key: String): Boolean = index.containsKey(key) || req.contains(key)
    override def size: Int = names.length + req.keysIterator.count(!index.containsKey(_))
    def iterator: Iterator[(String, Any)] =
      req.iterator.filter(kv => !index.containsKey(kv._1)) ++ names.indices.iterator.map(i => (names(i), values(i)))
    def updated[V1 >: Any](key: String, value: V1): Map[String, V1] =
      scala.collection.immutable.HashMap.from(this).updated(key, value)
    def removed(key: String): Map[String, Any] = scala.collection.immutable.HashMap.from(this).removed(key)
  }

  // How a fold reads its input column: as a number, a string or a boolean.
  private final val AsNum = 0
  private final val AsStr = 1
  private final val AsBool = 2

  /** One column a window's folds read, under one coercion; `cols` holds its
    * handle in each of the window's source tables.
    */
  private final class Input(val col: String, val as: Int, val cols: Array[OnlineTable.Column])

  /** An input's value in the frame row being fed, decoded once per row. A
    * stored row coerces as a request map does: `num`, `String.valueOf` and
    * `boolOf`, without boxing where the stored type allows.
    */
  private final class Cell(in: Input) {
    var isNull = true; var d = 0.0; var s: String = null; var b = false

    def load(src: Int, row: Array[Byte]): Unit = {
      val f = in.cols(src).field(row)
      isNull = f == null || f.isNull(row)
      in.as match {
        case AsNum => if (!isNull) d = f.double(row)
        case AsStr => s = if (isNull) null else f.string(row)
        case _     => if (!isNull) b = f.bool(row)
      }
    }

    def load(req: Row): Unit = {
      val v = req.getOrElse(in.col, null)
      isNull = v == null
      in.as match {
        case AsNum => if (!isNull) d = num(v)
        case AsStr => s = if (isNull) null else String.valueOf(v)
        case _     => if (!isNull) b = boolOf(v)
      }
    }
  }

  /** One raw-folded feature's [[AggCore]] state for one request, fed from
    * the cells once per frame row.
    */
  private abstract class Feed {
    def row(): Unit
    def result: Any
  }
  private final class CountFeed extends Feed {
    private val s = new AggCore.CountState
    def row(): Unit = s.update(java.lang.Boolean.TRUE) // count(1): every frame row counts
    def result: Any = s.result
  }
  private final class NumFeed(c: Cell, s: AggCore.NumState[_]) extends Feed {
    def row(): Unit = if (!c.isNull) s.add(c.d)
    def result: Any = s.result
  }
  private final class StrFeed(c: Cell, s: AggCore.State[String, _]) extends Feed {
    def row(): Unit = s.update(c.s)
    def result: Any = s.result
  }
  private final class CateFeed(v: Cell, p: Cell, cate: Cell) extends Feed {
    private val s = new AggCore.AvgCateWhereState
    def row(): Unit = if (!v.isNull && !p.isNull && p.b && cate.s != null) s.add(v.d, cate.s)
    def result: Any = s.result
  }

  /** A raw-folded feature: its output slot and how to build its feed over
    * one request's cells.
    */
  private final class Fold(val slot: Int, val feed: Array[Cell] => Feed)

  /** Compiles a feature's fold into output `slot`; `input(column,
    * coercion)` gives the index of the cell it reads.
    */
  private def foldOf(f: Feature, input: (String, Int) => Int, slot: Int): Fold = {
    def num(c: String, make: () => AggCore.NumState[_]): Array[Cell] => Feed = {
      val i = input(c, AsNum); cells => new NumFeed(cells(i), make())
    }
    def str(c: String, make: () => AggCore.State[String, _]): Array[Cell] => Feed = {
      val i = input(c, AsStr); cells => new StrFeed(cells(i), make())
    }
    new Fold(slot, f.fn match {
      case FeatureFn.Count                 => _ => new CountFeed
      case FeatureFn.Sum(c)                => num(c, () => new AggCore.SumState)
      case FeatureFn.Avg(c)                => num(c, () => new AggCore.AvgState)
      case FeatureFn.Min(c)                => num(c, () => new AggCore.MinState)
      case FeatureFn.Max(c)                => num(c, () => new AggCore.MaxState)
      case FeatureFn.DistinctCount(c)      => str(c, () => new AggCore.DistinctCountState)
      case FeatureFn.TopNFreq(c, n)        => str(c, () => new AggCore.TopNFreqState(n))
      case FeatureFn.AvgCateWhere(v, p, c) =>
        val (iv, ip, ic) = (input(v, AsNum), input(p, AsBool), input(c, AsStr))
        cells => new CateFeed(cells(iv), cells(ip), cells(ic))
      case FeatureFn.Drawdown(c)           => num(c, () => new AggCore.DrawdownState)
      case FeatureFn.EwAvg(c, a)           => num(c, () => new AggCore.EwAvgState(a))
    })
  }

  /** One pre-aggregated feature from its binding's merged partial, which
    * includes the virtual row.
    */
  private def fromPartial(fn: FeatureFn, p: PartialAcc): Any = fn match {
    case FeatureFn.Count  => p.rows
    case FeatureFn.Sum(_) => if (p.cnt == 0) null else p.sum
    case FeatureFn.Avg(_) => if (p.cnt == 0) null else p.sum / p.cnt
    case FeatureFn.Min(_) => if (p.cnt == 0) null else p.min
    case FeatureFn.Max(_) => if (p.cnt == 0) null else p.max
    case other            => throw new IllegalStateException(s"$other has no pre-aggregated form")
  }

  private[online] def num(v: Any): Double = v match {
    case d: Double => d
    case f: Float  => f.toDouble
    case l: Long   => l.toDouble
    case i: Int    => i.toDouble
    case s: Short  => s.toDouble
    case other     => other.toString.toDouble
  }

  private def boolOf(v: Any): Boolean = v match {
    case b: Boolean => b
    case other      => other.toString.toBoolean
  }
}
