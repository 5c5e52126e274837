package repro.core.functions

/** The shared feature-function library (the JVM analogue of the paper's
  * "C++ library functions shared by the offline and online execution
  * engines", §3.1/§4.2). Every OpenMLDB-SQL aggregate is an incremental
  * state: the offline path wraps these states in Spark `Aggregator`s and
  * the online request engine folds window scans through the very same
  * code, which is what makes offline and online results consistent by
  * construction.
  *
  * All states are serializable (Kryo buffer encoding on the Spark side)
  * and order-sensitive states document their required input order.
  */
object AggCore {

  /** Incremental aggregate state: update with one input, merge with a
    * peer state (for partial aggregation), finish to the output value.
    */
  trait State[-I, O] extends Serializable {
    def update(in: I): Unit
    def result: O
  }

  // ---------------------------------------------------------------- basics

  final class CountState extends State[Any, Long] {
    var n = 0L
    def update(in: Any): Unit = if (in != null) n += 1
    def merge(o: CountState): Unit = n += o.n
    def result: Long = n
  }

  /** A state over a nullable numeric input: a null is skipped, and a
    * present value goes to `add` unboxed (the online engine calls `add`
    * directly).
    */
  trait NumState[O] extends State[java.lang.Double, O] {
    def add(v: Double): Unit
    final def update(in: java.lang.Double): Unit = if (in != null) add(in)
  }

  final class SumState extends NumState[java.lang.Double] {
    var s = 0.0; var any = false
    def add(v: Double): Unit = { s += v; any = true }
    def merge(o: SumState): Unit = { s += o.s; any ||= o.any }
    def result: java.lang.Double = if (any) s else null
  }

  final class AvgState extends NumState[java.lang.Double] {
    var s = 0.0; var n = 0L
    def add(v: Double): Unit = { s += v; n += 1 }
    def merge(o: AvgState): Unit = { s += o.s; n += o.n }
    def result: java.lang.Double = if (n == 0) null else s / n
  }

  final class MinState extends NumState[java.lang.Double] {
    var m = 0.0; var any = false
    def add(v: Double): Unit = if (!any || v < m) { m = v; any = true }
    def merge(o: MinState): Unit = if (o.any) add(o.m)
    def result: java.lang.Double = if (any) m else null
  }

  final class MaxState extends NumState[java.lang.Double] {
    var m = 0.0; var any = false
    def add(v: Double): Unit = if (!any || v > m) { m = v; any = true }
    def merge(o: MaxState): Unit = if (o.any) add(o.m)
    def result: java.lang.Double = if (any) m else null
  }

  final class DistinctCountState extends State[String, Long] {
    var seen = new java.util.HashSet[String]
    def update(in: String): Unit = if (in != null) seen.add(in)
    def merge(o: DistinctCountState): Unit = seen.addAll(o.seen)
    def result: Long = seen.size.toLong
  }

  // ------------------------------------------------- OpenMLDB-specific fns

  /** topn_frequency(col, n): the top-n keys by occurrence frequency,
    * ties broken by key ascending, joined with ",". (Table 1, §4.1 (1).)
    */
  final class TopNFreqState(var n: Int) extends State[String, String] {
    var freq = new java.util.HashMap[String, java.lang.Long]
    def update(in: String): Unit = if (in != null) freq.merge(in, 1L, TopNFreqState.Plus)
    def merge(o: TopNFreqState): Unit = o.freq.forEach((k, c) => freq.merge(k, c, TopNFreqState.Plus))
    /** Selects the top n with a bounded heap whose head is the worst kept
      * entry, so no request sorts every distinct value.
      */
    def result: String = {
      val by = TopNFreqState.ByCountThenKey
      val top = new java.util.PriorityQueue[java.util.Map.Entry[String, java.lang.Long]](
        math.max(1, math.min(n, freq.size)), by.reversed)
      freq.entrySet.forEach { e =>
        if (top.size < n) top.add(e)
        else if (n > 0 && by.compare(e, top.peek) < 0) { top.poll(); top.add(e) }
      }
      val keys = new Array[String](top.size)
      var i = keys.length - 1
      while (i >= 0) { keys(i) = top.poll().getKey; i -= 1 }
      String.join(",", keys: _*)
    }
  }
  object TopNFreqState {
    private val Plus: java.util.function.BiFunction[java.lang.Long, java.lang.Long, java.lang.Long] =
      (a, b) => a + b
    /** Count descending, then key ascending. */
    private val ByCountThenKey: java.util.Comparator[java.util.Map.Entry[String, java.lang.Long]] =
      (x, y) => {
        val c = java.lang.Long.compare(y.getValue, x.getValue)
        if (c != 0) c else x.getKey.compareTo(y.getKey)
      }
  }

  /** avg_cate_where(value, cond, category): average of values passing the
    * condition, grouped by category; output "cat:avg" pairs sorted by
    * category, joined with ",". (§4.1 (2).)
    */
  final class AvgCateWhereState extends State[(java.lang.Double, java.lang.Boolean, String), String] {
    var acc = new java.util.TreeMap[String, CateSum]
    def update(in: (java.lang.Double, java.lang.Boolean, String)): Unit = {
      val (v, cond, cate) = in
      if (v != null && cond != null && cond && cate != null) add(v, cate)
    }
    /** One row whose value is present and whose condition holds. */
    def add(v: Double, cate: String): Unit = sumOf(cate).add(v, 1L)
    def merge(o: AvgCateWhereState): Unit = o.acc.forEach((k, c) => sumOf(k).add(c.s, c.n))
    private def sumOf(cate: String): CateSum = acc.computeIfAbsent(cate, _ => new CateSum)
    def result: String = {
      val sb = new java.lang.StringBuilder
      acc.forEach { (k, c) =>
        if (sb.length > 0) sb.append(',')
        sb.append(k).append(':').append(c.s / c.n)
      }
      sb.toString
    }
  }

  /** One category's running sum and count in [[AvgCateWhereState]]. */
  final class CateSum extends Serializable {
    var s = 0.0; var n = 0L
    def add(sum: Double, count: Long): Unit = { s += sum; n += count }
  }

  /** drawdown(col): maximum decline fraction from a running peak to a
    * subsequent trough (§4.1 (3)). ORDER-SENSITIVE: inputs must arrive
    * oldest-to-newest. 0.0 when the series never declines.
    */
  final class DrawdownState extends NumState[java.lang.Double] {
    var peak: Double = Double.NaN
    var maxDd: Double = 0.0
    var any = false
    def add(v: Double): Unit = {
      if (!any) { peak = v; any = true }
      else {
        if (v > peak) peak = v
        else if (peak > 0) maxDd = math.max(maxDd, (peak - v) / peak)
      }
    }
    def result: java.lang.Double = if (any) maxDd else null
  }

  /** ew_avg(col, alpha): exponentially weighted average with smoothing
    * factor alpha in (0, 1]; weight of the i-th most recent value is
    * (1-alpha)^i (pandas `ewm(alpha).mean()` of the last element).
    * ORDER-SENSITIVE: inputs oldest-to-newest.
    */
  final class EwAvgState(var alpha: Double) extends NumState[java.lang.Double] {
    var num = 0.0; var den = 0.0; var any = false
    def add(v: Double): Unit = {
      num = v + (1 - alpha) * num
      den = 1 + (1 - alpha) * den
      any = true
    }
    def result: java.lang.Double = if (any) num / den else null
  }
}
