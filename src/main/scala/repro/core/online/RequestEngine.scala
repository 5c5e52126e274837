package repro.core.online

import repro.core._
import repro.core.functions.AggCore
import repro.storage.TimeSeriesStore

/** An online table: the two-layer skiplist store holding decoded rows
  * (column name -> value) keyed by the index column and ordered by ts.
  * This is the tablet-server memtable of §7.2 wearing a test-friendly
  * payload type (production payloads are RowCodec bytes; the codec is
  * exercised by its own suite and the memory benches).
  */
final class OnlineTable(val keyCol: String, val tsCol: String) {
  val store = new TimeSeriesStore[String, Map[String, Any]]

  def put(row: Map[String, Any]): Unit =
    store.put(String.valueOf(row(keyCol)), asLong(row(tsCol)), row)

  def scan(key: String, lo: Long, hi: Long): Iterator[(Long, Map[String, Any])] =
    store.scan(key, lo, hi).map(e => (e.ts, e.payload))

  def latest(key: String, atOrBefore: Long): Option[(Long, Map[String, Any])] =
    store.latest(key, atOrBefore).map(e => (e.ts, e.payload))

  private def asLong(v: Any): Long = v match {
    case l: Long => l
    case i: Int  => i.toLong
    case other   => other.toString.toLong
  }
}

/** Online Request Mode executor (§3.2 (3)): each request tuple is
  * *virtually inserted* into the primary table, the deployed
  * [[FeatureSpec]] runs against the stores, and one feature row comes
  * back. All aggregates fold the exact [[AggCore]] states the offline
  * Spark plan uses.
  *
  * Long-window features can be served from a [[PreAggTable]] hierarchy
  * (per `(window, column)` binding) instead of raw scans — the §5.1
  * optimization; the raw edges still come from the skiplist.
  */
final class RequestEngine(
    spec: FeatureSpec,
    tables: Map[String, OnlineTable],
    preAgg: Map[(String, String), PreAggTable] = Map.empty) {

  private val primary = tables(spec.primary)

  /** Ingest a data tuple into a table (and its pre-aggregators). */
  def insert(table: String, row: Map[String, Any]): Unit = {
    val t = tables(table)
    t.put(row)
    if (table == spec.primary) {
      val ts = num(row(t.tsCol)).toLong
      preAgg.foreach { case ((_, valCol), pa) =>
        row.get(valCol).filter(_ != null)
          .foreach(v => pa.insert(String.valueOf(row(t.keyCol)), ts, num(v)))
      }
    }
  }

  private def num(v: Any): Double = v match {
    case d: Double => d
    case f: Float  => f.toDouble
    case l: Long   => l.toDouble
    case i: Int    => i.toDouble
    case s: Short  => s.toDouble
    case other     => other.toString.toDouble
  }

  /** Rows in a window's frame for the request tuple, oldest first,
    * including the virtual insert itself.
    */
  private def frameRows(w: WindowDef, req: Map[String, Any]): Seq[Map[String, Any]] = {
    val key = String.valueOf(req(w.keyCol))
    val t   = num(req(w.tsCol)).toLong
    val lo  = t - w.rangeMs
    val own   = primary.scan(key, lo, t).map(_._2)
    val union = w.unionTables.iterator.flatMap(n => tables(n).scan(key, lo, t).map(_._2))
    ((own ++ union).toSeq :+ req).sortBy(r => num(r(w.tsCol)).toLong)
  }

  /** Fold one feature over ordered frame rows via the shared library. */
  private def computeFn(fn: FeatureFn, rows: Seq[Map[String, Any]]): Any = fn match {
    case FeatureFn.Count => rows.size.toLong
    case FeatureFn.Sum(c) =>
      val st = new AggCore.SumState
      rows.foreach(r => st.update(boxed(r.get(c)))); st.result
    case FeatureFn.Avg(c) =>
      val st = new AggCore.AvgState
      rows.foreach(r => st.update(boxed(r.get(c)))); st.result
    case FeatureFn.Min(c) =>
      val st = new AggCore.MinState
      rows.foreach(r => st.update(boxed(r.get(c)))); st.result
    case FeatureFn.Max(c) =>
      val st = new AggCore.MaxState
      rows.foreach(r => st.update(boxed(r.get(c)))); st.result
    case FeatureFn.DistinctCount(c) =>
      val st = new AggCore.DistinctCountState
      rows.foreach(r => st.update(str(r.get(c)))); st.result
    case FeatureFn.TopNFreq(c, n) =>
      val st = new AggCore.TopNFreqState(n)
      rows.foreach(r => st.update(str(r.get(c)))); st.result
    case FeatureFn.AvgCateWhere(v, cond, cate) =>
      val st = new AggCore.AvgCateWhereState
      rows.foreach(r => st.update((boxed(r.get(v)), bool(r.get(cond)), str(r.get(cate)))))
      st.result
    case FeatureFn.Drawdown(c) =>
      val st = new AggCore.DrawdownState
      rows.foreach(r => st.update(boxed(r.get(c)))); st.result
    case FeatureFn.EwAvg(c, a) =>
      val st = new AggCore.EwAvgState(a)
      rows.foreach(r => st.update(boxed(r.get(c)))); st.result
  }

  private def boxed(v: Option[Any]): java.lang.Double = v match {
    case Some(null) | None => null
    case Some(x)           => java.lang.Double.valueOf(num(x))
  }
  private def str(v: Option[Any]): String = v match {
    case Some(null) | None => null
    case Some(x)           => String.valueOf(x)
  }
  private def bool(v: Option[Any]): java.lang.Boolean = v match {
    case Some(null) | None  => null
    case Some(b: Boolean)   => java.lang.Boolean.valueOf(b)
    case Some(x)            => java.lang.Boolean.valueOf(x.toString.toBoolean)
  }

  /** Serve one request tuple: virtual insert + feature computation. The
    * tuple is NOT persisted (mirroring OpenMLDB request mode).
    */
  def request(req: Map[String, Any]): Map[String, Any] = {
    val frameCache = scala.collection.mutable.HashMap.empty[String, Seq[Map[String, Any]]]
    val partials = new Array[Partial](bindings.length)
    var out = req
    plan.foreach { case (f, w, b) =>
      val value =
        if (b < 0) computeFn(f.fn, frameCache.getOrElseUpdate(w.name, frameRows(w, req)))
        else {
          if (partials(b) == null) partials(b) = preAggPartial(bindings(b), req)
          fromPartial(f.fn, partials(b), req.get(bindings(b).valCol).exists(_ != null))
        }
      out = out.updated(f.name, value)
    }
    spec.lastJoins.foreach { lj =>
      val key = String.valueOf(req(lj.keyCol))
      val ts  = num(req(primary.tsCol)).toLong
      val hit = tables(lj.table).latest(key, ts).map(_._2)
      lj.valCols.foreach { v =>
        out = out.updated(s"${lj.prefix}$v", hit.map(_.getOrElse(v, null)).orNull)
      }
    }
    out
  }

  /** A pre-aggregation serving a window: its value column and table. */
  private final class PreAggBinding(val w: WindowDef, val valCol: String, val pa: PreAggTable)

  /** The §5.1 binding rule: count/sum/avg/min/max over a non-union window
    * with an aggregator for the value column. Count can ride on any
    * aggregator of its window (bucket `cnt` counts rows with a non-null
    * value column — the deployment contract).
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

  /** Each feature with its window resolved and the index of the binding
    * in `bindings` that serves it (-1: fold the raw frame), so a request
    * merges each `(window, value column)` pre-aggregation once.
    */
  private val (plan, bindings): (Seq[(Feature, WindowDef, Int)], Array[PreAggBinding]) = {
    val bs = scala.collection.mutable.ArrayBuffer.empty[PreAggBinding]
    val p = spec.features.map { f =>
      val w = spec.window(f.window)
      val b = bindingOf(f, w).fold(-1) { case (c, pa) =>
        val i = bs.indexWhere(x => x.w.name == w.name && x.valCol == c)
        if (i >= 0) i else { bs += new PreAggBinding(w, c, pa); bs.length - 1 }
      }
      (f, w, b)
    }
    (p, bs.toArray)
  }

  /** §5.1 fast path: bucket partials plus the raw edges and the virtual
    * row's value (when not null) for one binding.
    */
  private def preAggPartial(b: PreAggBinding, req: Map[String, Any]): Partial = {
    val key = String.valueOf(req(b.w.keyCol))
    val t   = num(req(b.w.tsCol)).toLong
    val merged = b.pa.query(key, t - b.w.rangeMs, t,
      (lo, hi) => primary.scan(key, lo, hi).map { case (ts, r) => (ts, num(r(b.valCol))) })
    req.get(b.valCol).filter(_ != null).fold(merged)(v => merged.add(num(v)))
  }

  /** One pre-aggregated feature from its binding's merged partial; the
    * virtual row is in every frame, so Count takes it even when its value
    * column is null.
    */
  private def fromPartial(fn: FeatureFn, p: Partial, reqHasValue: Boolean): Any = fn match {
    case FeatureFn.Count  => if (reqHasValue) p.cnt else p.cnt + 1
    case FeatureFn.Sum(_) => if (p.cnt == 0) null else p.sum
    case FeatureFn.Avg(_) => if (p.cnt == 0) null else p.sum / p.cnt
    case FeatureFn.Min(_) => if (p.cnt == 0) null else p.min
    case FeatureFn.Max(_) => if (p.cnt == 0) null else p.max
    case other            => throw new IllegalStateException(s"$other has no pre-aggregated form")
  }
}
