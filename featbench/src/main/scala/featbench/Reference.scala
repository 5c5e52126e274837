package featbench

import repro.core._

/** Brute-force answers the benchmark checks the program against. Nothing
  * here calls the program: every feature is recomputed by a direct fold
  * over the generated rows, so a wrong answer from either engine shows as
  * a mismatch.
  */
object Reference {

  type Row = Map[String, Any]

  /** Rows of one table grouped by key, ascending by ts, with range lookup
    * by binary search.
    */
  final class KeyIndex(rows: Iterable[Row], keyCol: String, tsCol: String) {
    private val byKey: Map[String, (Array[Long], Array[Row])] =
      rows.groupBy(r => String.valueOf(r(keyCol))).map { case (k, rs) =>
        val sorted = rs.toArray.sortBy(r => ts(r))
        k -> ((sorted.map(ts), sorted))
      }

    private def ts(r: Row): Long = r(tsCol).asInstanceOf[Number].longValue

    /** Rows with ts in [lo, hi], oldest first. */
    def range(key: String, lo: Long, hi: Long): IndexedSeq[Row] = byKey.get(key) match {
      case None => IndexedSeq.empty
      case Some((tss, rs)) =>
        val from = lowerBound(tss, lo)
        val to = lowerBound(tss, hi + 1)
        rs.slice(from, to).toIndexedSeq
    }

    /** Latest row with ts <= at. */
    def latest(key: String, at: Long): Option[Row] = byKey.get(key).flatMap { case (tss, rs) =>
      val i = lowerBound(tss, at + 1) - 1
      if (i >= 0) Some(rs(i)) else None
    }

    private def lowerBound(a: Array[Long], x: Long): Int = {
      var lo = 0; var hi = a.length
      while (lo < hi) { val m = (lo + hi) >>> 1; if (a(m) < x) lo = m + 1 else hi = m }
      lo
    }
  }

  private def dbl(v: Any): Option[Double] = v match {
    case null      => None
    case n: Number => Some(n.doubleValue)
    case other     => Some(other.toString.toDouble)
  }
  private def txt(v: Any): Option[String] = Option(v).map(String.valueOf)

  /** One feature over an ascending-ts frame. */
  def eval(fn: FeatureFn, frame: IndexedSeq[Row]): Any = {
    def nums(c: String) = frame.flatMap(r => dbl(r.getOrElse(c, null)))
    def strs(c: String) = frame.flatMap(r => txt(r.getOrElse(c, null)))
    fn match {
      case FeatureFn.Count  => frame.size.toLong
      case FeatureFn.Sum(c) => val v = nums(c); if (v.isEmpty) null else v.foldLeft(0.0)(_ + _)
      case FeatureFn.Avg(c) => val v = nums(c); if (v.isEmpty) null else v.foldLeft(0.0)(_ + _) / v.size
      case FeatureFn.Min(c) => val v = nums(c); if (v.isEmpty) null else v.min
      case FeatureFn.Max(c) => val v = nums(c); if (v.isEmpty) null else v.max
      case FeatureFn.DistinctCount(c) => strs(c).distinct.size.toLong
      case FeatureFn.TopNFreq(c, n) =>
        strs(c).groupBy(identity).toSeq.map { case (k, vs) => (k, vs.size) }
          .sortBy { case (k, cnt) => (-cnt, k) }.take(n).map(_._1).mkString(",")
      case FeatureFn.AvgCateWhere(v, cond, cate) =>
        val kept = frame.filter(r => r.getOrElse(cond, null) == true).flatMap { r =>
          for (x <- dbl(r.getOrElse(v, null)); k <- txt(r.getOrElse(cate, null))) yield (k, x)
        }
        kept.groupBy(_._1).toSeq.sortBy(_._1).map { case (k, xs) =>
          s"$k:${xs.map(_._2).foldLeft(0.0)(_ + _) / xs.size}"
        }.mkString(",")
      case FeatureFn.Drawdown(c) =>
        val v = nums(c)
        if (v.isEmpty) null
        else {
          // Largest fall from the running peak, as a fraction of that peak.
          val peaks = v.scanLeft(Double.NegativeInfinity)(math.max).tail
          v.indices.map(j => if (peaks(j) > 0) (peaks(j) - v(j)) / peaks(j) else 0.0).max
        }
      case FeatureFn.EwAvg(c, alpha) =>
        val v = nums(c)
        if (v.isEmpty) null
        else {
          // Weight of the i-th most recent value is (1 - alpha)^i.
          val w = v.indices.map(i => math.pow(1 - alpha, (v.size - 1 - i).toDouble))
          v.indices.map(i => w(i) * v(i)).sum / w.sum
        }
    }
  }

  /** Every feature and last-join column the spec defines, for one request
    * row whose stored frames come from `frame` (rows strictly before the
    * request; the request itself is appended as the newest row).
    */
  def expected(spec: FeatureSpec, req: Row,
               frame: WindowDef => IndexedSeq[Row],
               lastJoin: LastJoinDef => Option[Row]): Map[String, Any] = {
    val frames = spec.windows.map(w => w.name -> (frame(w) :+ req)).toMap
    val feats = spec.features.map(f => f.name -> eval(f.fn, frames(f.window)))
    val joins = spec.lastJoins.flatMap { lj =>
      val hit = lastJoin(lj)
      lj.valCols.map(v => s"${lj.prefix}$v" -> hit.map(_.getOrElse(v, null)).orNull)
    }
    (feats ++ joins).toMap
  }

  /** Equal up to floating-point association: the program may add the same
    * values in another order (pre-aggregated buckets, Spark partials).
    */
  def same(e: Any, a: Any): Boolean = (e, a) match {
    case (null, null)               => true
    case (x: Number, y: Number)     =>
      val (u, v) = (x.doubleValue, y.doubleValue)
      math.abs(u - v) <= 1e-9 * math.max(1.0, math.max(math.abs(u), math.abs(v)))
    case (x: String, y: String)     => x == y
    case _                          => e == a
  }

  /** Names whose values differ, with both values; empty when all agree. */
  def mismatches(expected: Map[String, Any], actual: String => Any): Seq[String] =
    expected.toSeq.sortBy(_._1).collect {
      case (k, e) if !same(e, actual(k)) => s"$k: expected $e, got ${actual(k)}"
    }

  /** Running-window sums over a union stream, in stream order: for each
    * tuple, the sum of values of its key with ts in [ts - windowMs, ts].
    * One pass with a per-key queue; the stream's timestamps ascend.
    */
  def unionSums(keys: Array[String], ts: Array[Long], values: Array[Double], windowMs: Long): Array[Double] = {
    final class Win { val q = new java.util.ArrayDeque[Int](); var sum = 0.0 }
    val wins = scala.collection.mutable.HashMap.empty[String, Win]
    val out = new Array[Double](keys.length)
    var i = 0
    while (i < keys.length) {
      val w = wins.getOrElseUpdate(keys(i), new Win)
      w.q.addLast(i); w.sum += values(i)
      while (ts(w.q.peekFirst()) < ts(i) - windowMs) w.sum -= values(w.q.pollFirst())
      out(i) = w.sum
      i += 1
    }
    out
  }

  /** Indices where the program's union results differ from the reference. */
  def unionMismatches(expected: Array[Double], actual: Array[Double]): Seq[Int] =
    expected.indices.filterNot(i => math.abs(expected(i) - actual(i)) <= 1e-6 * math.max(1.0, math.abs(expected(i))))
}
