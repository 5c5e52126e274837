package repro.core.offline

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

/** LAST JOIN (Table 1 "Stream Join"): join each left row with the single
  * most recent matching right row — `right.key == left.key` and
  * `right.ts <= left.ts` (at-or-before semantics), latest `right.ts`
  * winning, ties broken by the largest right value (compared as a struct
  * of `rightVals`, nulls smallest) so results are deterministic.
  *
  * In standard SQL this needs a join + rank + filter; OpenMLDB makes it a
  * first-class operation backed by its time-ordered index. Offline it is a
  * merge along time: [[TaggedUnion]] of the left rows and the right rows,
  * one window per key ordered by (ts, right before left, right values
  * ascending), and each left row takes the last right values before it.
  * One exchange (of left and right rows together) and one sort; there is
  * no join and the left row is never regrouped.
  */
object LastJoin {

  /** @param left       driving table (every row preserved, like LEFT JOIN)
    * @param right      matched table
    * @param keyCols    equi-join key column names (present on both sides)
    * @param leftTs     left ordering column name
    * @param rightTs    right ordering column name
    * @param rightVals  right columns to carry into the output, after the
    *                   left columns
    */
  def apply(left: DataFrame, right: DataFrame, keyCols: Seq[String],
            leftTs: String, rightTs: String, rightVals: Seq[String]): DataFrame = {
    val best = "__lj_best"
    // Right rows in the left's key and ts columns, values in one struct.
    // An equi-join never matches a null key or ts, so those rows go.
    val rightRows = right
      .select(keyCols.map(k => col(k).cast(left.schema(k).dataType).as(k)) ++ Seq(
        col(rightTs).cast(left.schema(leftTs).dataType).as(leftTs),
        struct(rightVals.map(col): _*).as(best)): _*)
      .filter((keyCols :+ leftTs).map(col(_).isNotNull).reduce(_ && _))
    // Left rows carry a null struct, so `last` skips them. At one ts the
    // right rows sort first (at-or-before is inclusive), smallest value
    // first, so the last one seen is the largest.
    val w = Window.partitionBy(keyCols.map(col): _*)
      .orderBy(col(leftTs), col(TaggedUnion.Driving), col(best))
      .rowsBetween(Window.unboundedPreceding, Window.currentRow)
    val joined = TaggedUnion(left, Seq(rightRows))(
      _.withColumn(best, last(col(best), ignoreNulls = true).over(w)))
    rightVals.foldLeft(joined)((df, v) => df.withColumn(v, col(best).getField(v))).drop(best)
  }
}
