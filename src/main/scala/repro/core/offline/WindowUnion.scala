package repro.core.offline

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions.col

/** WINDOW UNION (Table 1, §5.2): aggregate over a time window whose
  * contents come from the primary table *and* one or more secondary
  * tables, partitioned by a shared key — without the UNION ALL +
  * origin-label boilerplate standard SQL would need.
  *
  * Offline plan shape: project every secondary to the primary's columns,
  * then [[TaggedUnion]]: union under the tagged primary, compute the window
  * aggregates over the union, keep only primary rows (secondary rows feed
  * frames but produce no output).
  */
object WindowUnion {

  /** @param primary     the driving table (its rows are the output rows)
    * @param secondaries tables whose rows join the window frames; each must
    *                    contain `keyCol`, `tsCol` and the columns used by
    *                    the aggregates (missing ones are filled with null)
    * @param keyCol      PARTITION BY column
    * @param tsCol       ORDER BY column (epoch millis)
    * @param rangeMs     frame: RANGE BETWEEN rangeMs PRECEDING AND CURRENT ROW
    * @param aggs        (output column, aggregate) pairs evaluated over the
    *                    unioned frame, e.g. "s" -> sum(col("price")) or
    *                    "top" -> expr("topn_frequency(cat, 3)")
    */
  def apply(primary: DataFrame, secondaries: Seq[DataFrame], keyCol: String,
            tsCol: String, rangeMs: Long, aggs: Seq[(String, Column)]): DataFrame = {
    val shared = primary.columns.toSeq
    val others = secondaries.map(s => s.select(shared.filter(s.columns.contains).map(col): _*))
    TaggedUnion(primary, others)(RangeFrame(_, keyCol, tsCol, rangeMs, aggs))
  }
}
