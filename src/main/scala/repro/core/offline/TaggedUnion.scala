package repro.core.offline

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.{col, lit}

/** The step WINDOW UNION and LAST JOIN share: tag the driving rows, union
  * the other rows under them by name, run one window over the union, and
  * keep only the driving rows. The other rows feed frames but produce no
  * output.
  *
  * The union keeps the driving side's column order; a column one side
  * lacks is null on that side, and the others' extra columns come last.
  */
private[offline] object TaggedUnion {

  /** True on driving rows, false on the others; a window may order by it
    * to put the others first at equal ts.
    */
  val Driving = "__driving"

  def apply(driving: DataFrame, others: Seq[DataFrame])(window: DataFrame => DataFrame): DataFrame = {
    val tagged = driving.withColumn(Driving, lit(true)) +: others.map(_.withColumn(Driving, lit(false)))
    window(tagged.reduce(_.unionByName(_, allowMissingColumns = true)))
      .filter(col(Driving)).drop(Driving)
  }
}
