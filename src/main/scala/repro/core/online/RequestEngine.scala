package repro.core.online

import repro.core._
import repro.core.functions.AggCore
import repro.storage.{TimeList, TimeSeriesStore, TsEntry}

/** An online table: the two-layer store holding decoded rows (column
  * name -> value) keyed by the index column and ordered by ts. This is
  * the tablet-server memtable of §7.2 wearing a test-friendly payload
  * type (production payloads are RowCodec bytes; the codec is exercised
  * by its own suite and the memory benches).
  */
final class OnlineTable(val keyCol: String, val tsCol: String) {
  import RequestEngine.num

  val store = new TimeSeriesStore[String, Map[String, Any]]

  /** The row's key and ts as ingest coerces them. */
  def keyOf(row: Map[String, Any]): String = String.valueOf(row(keyCol))
  def tsOf(row: Map[String, Any]): Long    = num(row(tsCol)).toLong

  def put(row: Map[String, Any]): Unit = store.put(keyOf(row), tsOf(row), row)

  /** The key's rows, newest first, or null when the key has none. */
  def series(key: String): TimeList[Map[String, Any]] = store.series(key)

  def scan(key: String, lo: Long, hi: Long): Iterator[(Long, Map[String, Any])] =
    store.scan(key, lo, hi).map(e => (e.ts, e.payload))

  def latest(key: String, atOrBefore: Long): Option[(Long, Map[String, Any])] =
    store.latest(key, atOrBefore).map(e => (e.ts, e.payload))
}

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

  /** Ingest a data tuple into a table (and its pre-aggregators). */
  def insert(table: String, row: Map[String, Any]): Unit = {
    val t   = tables(table)
    val key = t.keyOf(row)
    val ts  = t.tsOf(row)
    t.store.put(key, ts, row)
    if (table == spec.primary) preAgg.foreach { case ((_, valCol), pa) =>
      val v = row.getOrElse(valCol, null)
      if (v == null) pa.insertNull(key, ts) else pa.insert(key, ts, num(v))
    }
  }

  /** Serve one request tuple: virtual insert + feature computation. The
    * tuple is NOT persisted (mirroring OpenMLDB request mode).
    */
  def request(req: Map[String, Any]): Map[String, Any] = {
    val series = new Array[TimeList[Row]](readTables.length)
    var i = 0
    while (i < series.length) {
      series(i) = readTables(i).series(String.valueOf(req(readCols(i))))
      i += 1
    }
    val out = Map.newBuilder[String, Any]
    out ++= req
    windowPlans.foreach(_.compute(req, series, out))
    if (joinPlans.nonEmpty) {
      val ts = primary.tsOf(req)
      joinPlans.foreach { j =>
        val s   = series(j.read)
        val hit = if (s == null) None else s.latest(ts)
        j.valCols.indices.foreach { c =>
          out += j.outNames(c) -> hit.map(_.payload.getOrElse(j.valCols(c), null)).orNull
        }
      }
    }
    out.result()
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

  /** A pre-aggregation serving a window: its value column and the
    * features derived from its merged partial.
    */
  private final class Served(val valCol: String, val pa: PreAggTable, val features: Seq[Feature])

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
    * the frame merged from `sources` (read slots: primary, then unions).
    */
  private final class WindowPlan(w: WindowDef, sources: Array[Int], served: Seq[Served], folds: Array[Fold]) {
    def compute(req: Row, series: Array[TimeList[Row]], out: OutBuilder): Unit = {
      val t  = num(req(w.tsCol)).toLong
      val lo = t - w.rangeMs
      if (served.nonEmpty) {
        val key = String.valueOf(req(w.keyCol))
        val s   = series(sources(0))
        served.foreach { b =>
          val p = preAggPartial(b, key, s, lo, t, req)
          b.features.foreach(f => out += f.name -> fromPartial(f.fn, p))
        }
      }
      if (folds.nonEmpty) foldFrame(req, series, lo, t, out)
    }

    /** Folds every raw feature of the window in one pass over its frame.
      * Each source's scan is buffered newest first; the merge repeatedly
      * takes the oldest remaining tie run (lowest source on equal ts) and
      * feeds it forward, which keeps the time list's tie order.
      */
    private def foldFrame(req: Row, series: Array[TimeList[Row]], lo: Long, t: Long, out: OutBuilder): Unit = {
      var buf  = new Array[TsEntry[Row]](16)
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
      val states = folds.map(_.make())
      def feed(row: Row): Unit = {
        var f = 0
        while (f < folds.length) { states(f).update(folds(f).input(row)); f += 1 }
      }
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
          while (r < end(best)) { feed(buf(r).payload); r += 1 }
          end(best) = j
        }
      }
      feed(req)
      var f = 0
      while (f < folds.length) { out += folds(f).name -> states(f).result; f += 1 }
    }
  }

  private val windowPlans: Array[WindowPlan] = spec.windows.flatMap { w =>
    val fs = spec.features.filter(_.window == w.name)
    if (fs.isEmpty) None
    else {
      val sources = (spec.primary +: w.unionTables).map(readOf(_, w.keyCol)).toArray
      val bound   = fs.map(f => f -> bindingOf(f, w))
      val served  = bound.collect { case (f, Some((c, pa))) => (c, pa, f) }
        .groupBy(_._1).toSeq
        .map { case (c, xs) => new Served(c, xs.head._2, xs.map(_._3)) }
      val folds = bound.collect { case (f, None) => foldOf(f) }.toArray
      Some(new WindowPlan(w, sources, served, folds))
    }
  }.toArray

  private final class JoinPlan(val read: Int, val valCols: IndexedSeq[String], val outNames: IndexedSeq[String])
  private val joinPlans: Seq[JoinPlan] = spec.lastJoins.map { lj =>
    new JoinPlan(readOf(lj.table, lj.keyCol), lj.valCols.toIndexedSeq, lj.valCols.map(lj.prefix + _).toIndexedSeq)
  }

  private val readTables: Array[OnlineTable] = reads.map(r => tables(r._1)).toArray
  private val readCols: Array[String]        = reads.map(_._2).toArray

  /** §5.1 fast path: bucket partials plus the raw edges, read from the
    * request's resolved time list, plus the virtual row.
    */
  private def preAggPartial(b: Served, key: String, s: TimeList[Row], lo: Long, t: Long, req: Row): PartialAcc = {
    val acc = b.pa.queryRows(key, lo, t, (l, h, acc) =>
      if (s != null) {
        val it = s.scan(l, h)
        while (it.hasNext) {
          val v = it.next().payload.getOrElse(b.valCol, null)
          if (v == null) acc.addNull() else acc.add(num(v))
        }
      })
    val v = req.getOrElse(b.valCol, null)
    if (v == null) acc.addNull() else acc.add(num(v))
    acc
  }
}

object RequestEngine {
  private type Row        = Map[String, Any]
  private type OutBuilder = scala.collection.mutable.Builder[(String, Any), Row]

  /** A raw-folded feature: a fresh [[AggCore]] state per request, fed the
    * feature's input from each frame row.
    */
  private final class Fold(val name: String, val make: () => AggCore.State[Any, Any], val input: Row => Any)

  private def fold[I](name: String, make: () => AggCore.State[I, _], input: Row => I): Fold =
    new Fold(name, make.asInstanceOf[() => AggCore.State[Any, Any]], input)

  private def foldOf(f: Feature): Fold = f.fn match {
    // count(1): every frame row counts
    case FeatureFn.Count                 => fold(f.name, () => new AggCore.CountState, _ => java.lang.Boolean.TRUE)
    case FeatureFn.Sum(c)                => fold(f.name, () => new AggCore.SumState, r => dbl(r, c))
    case FeatureFn.Avg(c)                => fold(f.name, () => new AggCore.AvgState, r => dbl(r, c))
    case FeatureFn.Min(c)                => fold(f.name, () => new AggCore.MinState, r => dbl(r, c))
    case FeatureFn.Max(c)                => fold(f.name, () => new AggCore.MaxState, r => dbl(r, c))
    case FeatureFn.DistinctCount(c)      => fold(f.name, () => new AggCore.DistinctCountState, r => str(r, c))
    case FeatureFn.TopNFreq(c, n)        => fold(f.name, () => new AggCore.TopNFreqState(n), r => str(r, c))
    case FeatureFn.AvgCateWhere(v, p, c) =>
      fold(f.name, () => new AggCore.AvgCateWhereState, r => (dbl(r, v), bool(r, p), str(r, c)))
    case FeatureFn.Drawdown(c)           => fold(f.name, () => new AggCore.DrawdownState, r => dbl(r, c))
    case FeatureFn.EwAvg(c, a)           => fold(f.name, () => new AggCore.EwAvgState(a), r => dbl(r, c))
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

  private def dbl(r: Row, c: String): java.lang.Double = r.getOrElse(c, null) match {
    case null                => null
    case d: java.lang.Double => d
    case x                   => java.lang.Double.valueOf(num(x))
  }
  private def str(r: Row, c: String): String = {
    val v = r.getOrElse(c, null)
    if (v == null) null else String.valueOf(v)
  }
  private def bool(r: Row, c: String): java.lang.Boolean = r.getOrElse(c, null) match {
    case null       => null
    case b: Boolean => java.lang.Boolean.valueOf(b)
    case x          => java.lang.Boolean.valueOf(x.toString.toBoolean)
  }
}
