package featbench

import repro.core._
import repro.core.functions.AggCore
import repro.core.online.{OnlineTable, PreAggTable, RequestEngine}

/** The traced request path. `RequestEngine.request` cannot be wrapped from
  * outside, so after timing it as the `online.request` span the benchmark
  * re-issues, from its own code, the calls the engine made into each
  * layer for that request: the same window scans, the same `AggCore` folds
  * over the fetched frames, the same pre-aggregation queries and the same
  * LAST JOIN lookup. Each becomes a replay child of the request span, and
  * the request's self time is what the engine spent outside them.
  */
final class RequestTrace(spec: FeatureSpec, tables: Map[String, OnlineTable],
                         preAgg: Map[(String, String), PreAggTable], val tracer: Tracer) {
  private val primary = tables(spec.primary)
  var scans = 0L; var scannedRows = 0L
  var foldUpdates = 0L
  var queries = 0L; var buckets = 0L; var rawRows = 0L
  var requests = 0L; var allocBytes = 0L

  private def num(v: Any): Double = v match {
    case n: Number => n.doubleValue
    case other     => other.toString.toDouble
  }

  /** The pre-aggregation serving feature `f`, by the engine's binding rule. */
  private def binding(f: Feature, w: WindowDef): Option[(String, PreAggTable)] =
    if (w.unionTables.nonEmpty) None
    else f.fn match {
      case FeatureFn.Sum(c) => preAgg.get((w.name, c)).map((c, _))
      case FeatureFn.Avg(c) => preAgg.get((w.name, c)).map((c, _))
      case FeatureFn.Min(c) => preAgg.get((w.name, c)).map((c, _))
      case FeatureFn.Max(c) => preAgg.get((w.name, c)).map((c, _))
      case FeatureFn.Count  => preAgg.collectFirst { case ((wn, c), pa) if wn == w.name => (c, pa) }
      case _                => None
    }

  def request(engine: RequestEngine, reqId: Long, req: Map[String, Any]): Map[String, Any] = {
    val a0 = Jvm.allocatedBytes()
    var out: Map[String, Any] = null
    var id = -1
    tracer.span("online.request", -1, reqId) { s => id = s; out = engine.request(req) }
    allocBytes += Jvm.allocatedBytes() - a0
    requests += 1
    replayLayers(id, reqId, req)
    out
  }

  private def replayLayers(parent: Int, reqId: Long, req: Map[String, Any]): Unit = {
    val byWindow = spec.features.groupBy(_.window)
    spec.windows.foreach { w =>
      val key = String.valueOf(req(w.keyCol))
      val t = num(req(w.tsCol)).toLong
      val (served, folded) = byWindow.getOrElse(w.name, Nil).partition(f => binding(f, w).isDefined)
      served.foreach { f =>
        val (valCol, pa) = binding(f, w).get
        tracer.span("preagg.query", parent, reqId, replay = true) { q =>
          pa.query(key, t - w.rangeMs, t, (lo, hi) =>
            tracer.span("preagg.raw_scan", q, reqId) { _ =>
              primary.scan(key, lo, hi).map { case (ts, r) => (ts, num(r(valCol))) }.toArray
            }.iterator)
        }
        queries += 1; buckets += pa.lastQueryBuckets; rawRows += pa.lastQueryRawRows
      }
      if (folded.nonEmpty) {
        val parts = (spec.primary +: w.unionTables).map { n =>
          tracer.span("storage.scan", parent, reqId, replay = true) { _ =>
            tables(n).scan(key, t - w.rangeMs, t).map(_._2).toArray
          }
        }
        scans += parts.size; scannedRows += parts.map(_.length).sum
        val frame = (parts.flatten.toSeq :+ req).sortBy(r => num(r(w.tsCol)).toLong)
        tracer.span("functions.fold", parent, reqId, replay = true) { _ =>
          folded.foreach(f => RequestTrace.fold(f.fn, frame))
        }
        foldUpdates += frame.size.toLong * folded.size
      }
    }
    spec.lastJoins.foreach { lj =>
      tracer.span("storage.latest", parent, reqId, replay = true) { _ =>
        tables(lj.table).latest(String.valueOf(req(lj.keyCol)), num(req(primary.tsCol)).toLong)
      }
    }
  }

  /** An insert made by calling the layers the engine's insert calls —
    * the store put and, for the primary table, each pre-aggregation — as
    * nested spans.
    */
  def insert(reqId: Long, table: String, row: Map[String, Any]): Unit = {
    val t = tables(table)
    tracer.span("online.insert", -1, reqId) { id =>
      tracer.span("storage.put", id, reqId)(_ => t.put(row))
      if (table == spec.primary) preAgg.foreach { case ((_, valCol), pa) =>
        tracer.span("preagg.insert", id, reqId) { _ =>
          pa.insert(String.valueOf(row(t.keyCol)), num(row(t.tsCol)).toLong, num(row(valCol)))
        }
      }
    }
  }
}

object RequestTrace {
  private def dbl(v: Any): java.lang.Double = v match {
    case null      => null
    case n: Number => java.lang.Double.valueOf(n.doubleValue)
    case other     => java.lang.Double.valueOf(other.toString.toDouble)
  }
  private def str(v: Any): String = if (v == null) null else String.valueOf(v)
  private def bool(v: Any): java.lang.Boolean = v match {
    case null       => null
    case b: Boolean => java.lang.Boolean.valueOf(b)
    case other      => java.lang.Boolean.valueOf(other.toString.toBoolean)
  }

  /** One feature's `AggCore` fold over an ordered frame, as the engine
    * folds it (one state per feature, values boxed on the way in).
    */
  def fold(fn: FeatureFn, rows: Seq[Map[String, Any]]): Any = {
    def get(r: Map[String, Any], c: String): Any = r.getOrElse(c, null)
    fn match {
      case FeatureFn.Count => rows.size.toLong
      case FeatureFn.Sum(c) => val s = new AggCore.SumState; rows.foreach(r => s.update(dbl(get(r, c)))); s.result
      case FeatureFn.Avg(c) => val s = new AggCore.AvgState; rows.foreach(r => s.update(dbl(get(r, c)))); s.result
      case FeatureFn.Min(c) => val s = new AggCore.MinState; rows.foreach(r => s.update(dbl(get(r, c)))); s.result
      case FeatureFn.Max(c) => val s = new AggCore.MaxState; rows.foreach(r => s.update(dbl(get(r, c)))); s.result
      case FeatureFn.DistinctCount(c) =>
        val s = new AggCore.DistinctCountState; rows.foreach(r => s.update(str(get(r, c)))); s.result
      case FeatureFn.TopNFreq(c, n) =>
        val s = new AggCore.TopNFreqState(n); rows.foreach(r => s.update(str(get(r, c)))); s.result
      case FeatureFn.AvgCateWhere(v, cond, cate) =>
        val s = new AggCore.AvgCateWhereState
        rows.foreach(r => s.update((dbl(get(r, v)), bool(get(r, cond)), str(get(r, cate))))); s.result
      case FeatureFn.Drawdown(c) => val s = new AggCore.DrawdownState; rows.foreach(r => s.update(dbl(get(r, c)))); s.result
      case FeatureFn.EwAvg(c, a) => val s = new AggCore.EwAvgState(a); rows.foreach(r => s.update(dbl(get(r, c)))); s.result
    }
  }
}
